// Package detect implements Sonar's dual-differential side-channel
// detection (paper §7): the commit-cycle-difference (CCD) comparison that
// pinpoints instructions genuinely affected by a side channel, and the
// contention-state comparison that attributes the timing difference to
// specific contention points.
package detect

import (
	"fmt"
	"strings"

	"sonar/internal/monitor"
	"sonar/internal/trace"
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
// control-flow prefix. It overwrites dst with the instructions whose CCD
// differs and returns it.
//
// Raw commit-time comparison misreports instructions that are merely
// queued behind a delayed one (the mul behind the div in Figure 5); the CCD
// metric cancels the in-order commit effect, so only genuinely affected
// instructions survive.
//
//sonar:alloc-free
func CCDCompare(dst []Affected, a, b []uarch.CommitRecord) []Affected {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := dst[:0]
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

// Reason is the set of contention-critical states that diverged at one
// contention point under the two secret values.
type Reason uint8

const (
	// ReasonStream: the ordered request streams (event digests) differ.
	ReasonStream Reason = 1 << iota
	// ReasonCount: the event counts differ.
	ReasonCount
	// ReasonIntvl: the minimum distinct-request intervals (reqsIntvl)
	// differ.
	ReasonIntvl
	// ReasonRevisit: a same-path revisit happened in one run only.
	ReasonRevisit

	// Reasons is every defined reason bit.
	Reasons = ReasonStream | ReasonCount | ReasonIntvl | ReasonRevisit
)

// StateDiff is one contention point whose contention-critical states
// diverge under the two secret values (paper §7.2, Figure 5 bottom). It
// holds no strings or pointers: point names, components and the reason
// text are rendered from the campaign's analysis where a finding leaves the
// process (Render, Finding.String).
type StateDiff struct {
	// PointID identifies the contention point.
	PointID int
	// Reason says which states diverged; never zero.
	Reason Reason
	// CountA is the event count under the first secret when the counts
	// differ (ReasonCount), and zero otherwise: the rendered reason carries
	// the counts only then.
	CountA int
	// CountB is the event count under the second secret, like CountA.
	CountB int
	// IntvlA is the minimum distinct-request interval under the first
	// secret (monitor.NoInterval when unobserved).
	IntvlA int64
	// IntvlB is the minimum distinct-request interval under the second
	// secret.
	IntvlB int64
	// Volatile marks a simultaneous-arrival (interval 0) contention in
	// either run.
	Volatile bool
	// Persistent marks a same-path revisit contention in either run.
	Persistent bool
}

// Check rejects a state diff no comparison produces: reason bits that are
// zero or undefined, negative event counts, or counts that disagree with
// the ReasonCount bit.
func (sd *StateDiff) Check() error {
	if sd.Reason == 0 || sd.Reason&^Reasons != 0 {
		return fmt.Errorf("point %d: invalid reason bits %#x", sd.PointID, uint8(sd.Reason))
	}
	if sd.CountA < 0 || sd.CountB < 0 {
		return fmt.Errorf("point %d: negative event count %d vs %d", sd.PointID, sd.CountA, sd.CountB)
	}
	if (sd.Reason&ReasonCount != 0) != (sd.CountA != sd.CountB) {
		return fmt.Errorf("point %d: event counts %d vs %d disagree with reason bits %#x", sd.PointID, sd.CountA, sd.CountB, uint8(sd.Reason))
	}
	return nil
}

// StateCompare performs the contention-state differential between two
// instrumented executions over one monitor's points. It overwrites dst with
// the points whose states deviate, in ascending point ID order (the order
// of Snapshot.Points), and returns it; a dst with room for every diff is not
// reallocated. A point idle in both snapshots cannot deviate, so the
// comparison walks only the union of the two snapshots' Active lists.
//
//sonar:alloc-free
func StateCompare(dst []StateDiff, a, b *monitor.Snapshot) []StateDiff {
	dst = dst[:0]
	n := min(len(a.Points), len(b.Points))
	actA, actB := a.Active(), b.Active()
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
		var r Reason
		var countA, countB int
		if pa.Digest != pb.Digest {
			r |= ReasonStream
		}
		if pa.EventCount != pb.EventCount {
			r |= ReasonCount
			countA, countB = pa.EventCount, pb.EventCount
		}
		if pa.MinIntvlDistinct != pb.MinIntvlDistinct {
			r |= ReasonIntvl
		}
		if pa.PersistentCandidate != pb.PersistentCandidate {
			r |= ReasonRevisit
		}
		if r == 0 {
			continue
		}
		dst = append(dst, StateDiff{
			PointID:    pa.Point.ID,
			Reason:     r,
			CountA:     countA,
			CountB:     countB,
			IntvlA:     pa.MinIntvlDistinct,
			IntvlB:     pb.MinIntvlDistinct,
			Volatile:   pa.VolatileContention || pb.VolatileContention,
			Persistent: pa.PersistentCandidate || pb.PersistentCandidate,
		})
	}
	return dst
}

// Finding is a detected contention side channel: instructions genuinely
// affected by secret-dependent timing plus the contention points whose
// state differences explain them. Together the two reports "enable rapid
// identification and justification of contention side channels" (§7.2).
type Finding struct {
	// Affected are the CCD-filtered instructions.
	Affected []Affected
	// StateDiffs are the candidate root-cause contention points, in
	// ascending point ID order.
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

// Components returns the distinct components implicated by state diffs,
// named by the analysis the point IDs index.
func (f *Finding) Components(an *trace.Analysis) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range f.StateDiffs {
		c := an.Points[s.PointID].Component
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// Analyze runs the full dual-differential comparison on two executions'
// commit logs and snapshots, writing the finding into f over the storage
// of its lists, and reports whether a side channel is exposed. It reports
// false when there is no timing difference, or timing differences whose
// CCD analysis shows no genuinely affected instruction; f then holds no
// finding. A caller that keeps f recycles it for the next comparison, so
// after warm-up a comparison allocates nothing; what outlives the next
// call must be copied out.
//
//sonar:alloc-free
func Analyze(f *Finding, logA, logB []uarch.CommitRecord, snapA, snapB *monitor.Snapshot) bool {
	f.Affected = CCDCompare(f.Affected, logA, logB)
	f.StateDiffs = f.StateDiffs[:0]
	if len(f.Affected) == 0 {
		return false
	}
	if snapA != nil && snapB != nil {
		f.StateDiffs = StateCompare(f.StateDiffs, snapA, snapB)
	}
	return true
}

// String renders a short human-readable report, naming contention points
// by the analysis the point IDs index.
func (f *Finding) String(an *trace.Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "side channel: %d instruction(s) affected, max CCD delta %d cycles\n",
		len(f.Affected), f.MaxDelta())
	for _, a := range f.Affected {
		fmt.Fprintf(&b, "  instr %d: CCD %d -> %d\n", a.Idx, a.CCDA, a.CCDB)
	}
	var reason []byte
	for _, s := range f.StateDiffs {
		reason = s.AppendReason(reason[:0])
		fmt.Fprintf(&b, "  point %d (%s): %s\n", s.PointID, an.Points[s.PointID].Out.Name(), reason)
	}
	return b.String()
}
