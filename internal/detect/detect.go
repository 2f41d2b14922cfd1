// Package detect implements Sonar's dual-differential side-channel
// detection (paper §7): the commit-cycle-difference (CCD) comparison that
// pinpoints instructions genuinely affected by a side channel, and the
// contention-state comparison that attributes the timing difference to
// specific contention points.
package detect

import (
	"fmt"
	"sort"
	"strings"

	"sonar/internal/monitor"
	"sonar/internal/uarch"
)

// Affected is one instruction whose commit-cycle difference changes with
// the secret — a genuine side-channel effect, not an artifact of in-order
// commit (paper §7.1, Figure 5 top).
type Affected struct {
	// Idx is the static program index of the instruction.
	Idx int
	// Pos is the position in the matched commit sequence.
	Pos int
	// CCDA and CCDB are the commit cycle differences (relative to the
	// previous commit) under the two secret values.
	CCDA, CCDB int64
}

// Delta returns the magnitude of the CCD change.
func (a Affected) Delta() int64 {
	d := a.CCDB - a.CCDA
	if d < 0 {
		return -d
	}
	return d
}

// CCDCompare matches the two commit logs positionally over their common
// control-flow prefix and returns the instructions whose CCD differs.
//
// Raw commit-time comparison misreports instructions that are merely
// queued behind a delayed one (the mul behind the div in Figure 5); the CCD
// metric cancels the in-order commit effect, so only genuinely affected
// instructions survive.
func CCDCompare(a, b []uarch.CommitRecord) []Affected {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var out []Affected
	var prevA, prevB int64
	if n > 0 {
		prevA, prevB = a[0].Cycle, b[0].Cycle
	}
	for i := 1; i < n; i++ {
		if a[i].Idx != b[i].Idx {
			break // control flow diverged; later commits are incomparable
		}
		ccdA := a[i].Cycle - prevA
		ccdB := b[i].Cycle - prevB
		prevA, prevB = a[i].Cycle, b[i].Cycle
		if ccdA != ccdB {
			out = append(out, Affected{Idx: a[i].Idx, Pos: i, CCDA: ccdA, CCDB: ccdB})
		}
	}
	return out
}

// TimingDiff reports whether the two commit logs expose any observable
// timing difference at all (before CCD filtering).
func TimingDiff(a, b []uarch.CommitRecord) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if len(a) != len(b) {
		return true
	}
	for i := 1; i < n; i++ {
		if a[i].Idx != b[i].Idx {
			return true
		}
		if a[i].Cycle-a[0].Cycle != b[i].Cycle-b[0].Cycle {
			return true
		}
	}
	return false
}

// StateDiff is one contention point whose contention-critical states
// diverge under the two secret values (paper §7.2, Figure 5 bottom).
type StateDiff struct {
	// PointID identifies the contention point.
	PointID int
	// Name is the contention point output signal name.
	Name string
	// Component is the owning top-level component.
	Component string
	// Reason summarizes which state diverged.
	Reason string
	// IntvlA and IntvlB are the minimum distinct-request intervals under
	// the two secrets (monitor.NoInterval when unobserved).
	IntvlA, IntvlB int64
	// Volatile marks a simultaneous-arrival (interval 0) contention in
	// either run; Persistent marks a same-path revisit.
	Volatile   bool
	Persistent bool // same-path revisit contention in either run
}

// StateCompare performs the contention-state differential between two
// instrumented executions, returning the points whose states deviate,
// sorted by point ID so the result is invariant under monitor placement
// order (both snapshots must share one placement). A point idle in both
// snapshots cannot deviate, so the comparison walks only the union of the
// two snapshots' Active lists.
func StateCompare(a, b *monitor.Snapshot) []StateDiff {
	n := min(len(a.Points), len(b.Points))
	actA, actB := a.Active(), b.Active()
	var out []StateDiff
	for ia, ib := 0, 0; ia < len(actA) || ib < len(actB); {
		// Merge step: i is the smaller head of the two ascending lists.
		var i int
		switch {
		case ib == len(actB) || ia < len(actA) && actA[ia] < actB[ib]:
			i = actA[ia]
			ia++
		case ia == len(actA) || actB[ib] < actA[ia]:
			i = actB[ib]
			ib++
		default:
			i = actA[ia]
			ia++
			ib++
		}
		if i >= n {
			break // both lists ascend: every later index is out of range too
		}
		pa, pb := &a.Points[i], &b.Points[i]
		var reasons []string
		if pa.Digest != pb.Digest {
			reasons = append(reasons, "request stream")
		}
		if pa.EventCount != pb.EventCount {
			reasons = append(reasons, fmt.Sprintf("event count %d vs %d", pa.EventCount, pb.EventCount))
		}
		if pa.MinIntvlDistinct != pb.MinIntvlDistinct {
			reasons = append(reasons, "reqsIntvl")
		}
		if pa.PersistentCandidate != pb.PersistentCandidate {
			reasons = append(reasons, "same-path revisit")
		}
		if len(reasons) == 0 {
			continue
		}
		out = append(out, StateDiff{
			PointID:    pa.Point.ID,
			Name:       pa.Point.Out.Name(),
			Component:  pa.Point.Component,
			Reason:     strings.Join(reasons, ", "),
			IntvlA:     pa.MinIntvlDistinct,
			IntvlB:     pb.MinIntvlDistinct,
			Volatile:   pa.VolatileContention || pb.VolatileContention,
			Persistent: pa.PersistentCandidate || pb.PersistentCandidate,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PointID < out[j].PointID })
	return out
}

// Finding is a detected contention side channel: instructions genuinely
// affected by secret-dependent timing plus the contention points whose
// state differences explain them. Together the two reports "enable rapid
// identification and justification of contention side channels" (§7.2).
type Finding struct {
	// Affected are the CCD-filtered instructions.
	Affected []Affected
	// StateDiffs are the candidate root-cause contention points.
	StateDiffs []StateDiff
}

// MaxDelta returns the largest CCD change across affected instructions —
// the "Time Difference" column of paper Table 3.
func (f *Finding) MaxDelta() int64 {
	var max int64
	for _, a := range f.Affected {
		if d := a.Delta(); d > max {
			max = d
		}
	}
	return max
}

// Components returns the distinct components implicated by state diffs.
func (f *Finding) Components() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range f.StateDiffs {
		if !seen[s.Component] {
			seen[s.Component] = true
			out = append(out, s.Component)
		}
	}
	return out
}

// Analyze runs the full dual-differential comparison on two executions'
// commit logs and snapshots. It returns nil when no side channel is
// exposed: either no timing difference, or timing differences whose CCD
// analysis shows no genuinely affected instruction.
func Analyze(logA, logB []uarch.CommitRecord, snapA, snapB *monitor.Snapshot) *Finding {
	affected := CCDCompare(logA, logB)
	if len(affected) == 0 {
		return nil
	}
	f := &Finding{Affected: affected}
	if snapA != nil && snapB != nil {
		f.StateDiffs = StateCompare(snapA, snapB)
	}
	return f
}

// String renders a short human-readable report.
func (f *Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "side channel: %d instruction(s) affected, max CCD delta %d cycles\n",
		len(f.Affected), f.MaxDelta())
	for _, a := range f.Affected {
		fmt.Fprintf(&b, "  instr %d: CCD %d -> %d\n", a.Idx, a.CCDA, a.CCDB)
	}
	for _, s := range f.StateDiffs {
		fmt.Fprintf(&b, "  point %d (%s): %s\n", s.PointID, s.Name, s.Reason)
	}
	return b.String()
}
