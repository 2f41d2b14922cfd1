package detect

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"sonar/internal/trace"
)

// reasonParts are the reason texts in rendering order, one per Reason bit.
var reasonParts = [...]struct {
	bit  Reason
	text string
}{
	{ReasonStream, "request stream"},
	{ReasonCount, "event count "},
	{ReasonIntvl, "reqsIntvl"},
	{ReasonRevisit, "same-path revisit"},
}

// AppendReason appends the diff's reason text to b: the diverged states,
// comma-separated in bit order, with the two event counts after "event
// count" ("request stream, event count 3 vs 6, reqsIntvl").
//
//sonar:alloc-free
func (sd *StateDiff) AppendReason(b []byte) []byte {
	first := true
	for _, p := range reasonParts {
		if sd.Reason&p.bit == 0 {
			continue
		}
		if !first {
			b = append(b, ", "...)
		}
		first = false
		b = append(b, p.text...)
		if p.bit == ReasonCount {
			b = strconv.AppendInt(b, int64(sd.CountA), 10)
			b = append(b, " vs "...)
			b = strconv.AppendInt(b, int64(sd.CountB), 10)
		}
	}
	return b
}

// parseReason sets the reason bits and event counts of sd from a rendered
// reason text, which must be exactly what AppendReason renders for them.
func (sd *StateDiff) parseReason(text string) error {
	sd.Reason, sd.CountA, sd.CountB = 0, 0, 0
	for rest := text; rest != ""; {
		part, tail, _ := strings.Cut(rest, ", ")
		rest = tail
		known := false
		for _, p := range reasonParts {
			if p.bit == ReasonCount {
				counts, ok := strings.CutPrefix(part, p.text)
				if !ok {
					continue
				}
				a, b, ok := strings.Cut(counts, " vs ")
				ca, errA := strconv.Atoi(a)
				cb, errB := strconv.Atoi(b)
				if !ok || errA != nil || errB != nil {
					return fmt.Errorf("reason %q: bad event counts %q", text, counts)
				}
				sd.CountA, sd.CountB = ca, cb
			} else if part != p.text {
				continue
			}
			sd.Reason |= p.bit
			known = true
			break
		}
		if !known {
			return fmt.Errorf("reason %q: unknown state %q", text, part)
		}
	}
	if err := sd.Check(); err != nil {
		return fmt.Errorf("reason %q: %w", text, err)
	}
	var buf [64]byte
	if string(sd.AppendReason(buf[:0])) != text {
		return fmt.Errorf("reason %q is not in canonical form", text)
	}
	return nil
}

// NamedFinding is a Finding as it leaves the process — in stats, results
// and checkpoints: every state diff carries its point's name, component
// and reason text. Its JSON encoding is the campaign output format.
type NamedFinding struct {
	// Affected are the CCD-filtered instructions.
	Affected []Affected
	// StateDiffs are the rendered state diffs, in ascending point ID order.
	StateDiffs []NamedDiff
}

// NamedDiff is a StateDiff rendered for output.
type NamedDiff struct {
	// PointID identifies the contention point.
	PointID int
	// Name is the contention point output signal name.
	Name string
	// Component is the owning top-level component.
	Component string
	// Reason summarizes which state diverged (StateDiff.AppendReason).
	Reason string
	// IntvlA and IntvlB are the minimum distinct-request intervals under
	// the two secrets (monitor.NoInterval when unobserved).
	IntvlA, IntvlB int64
	// Volatile marks a simultaneous-arrival (interval 0) contention in
	// either run; Persistent marks a same-path revisit.
	Volatile   bool
	Persistent bool // same-path revisit contention in either run
}

// PointName is one contention point as rendered findings name it: its
// output signal name and owning component.
type PointName struct {
	// ID identifies the contention point.
	ID int
	// Name is the point's output signal name.
	Name string
	// Component is the owning top-level component.
	Component string
}

// PointNames returns the name table Render needs for findings: one entry
// per point their state diffs reference, in ascending ID order, named from
// the analysis their point IDs index.
func PointNames(findings []*Finding, an *trace.Analysis) []PointName {
	used := make([]bool, len(an.Points))
	n := 0
	for _, f := range findings {
		for j := range f.StateDiffs {
			if id := f.StateDiffs[j].PointID; !used[id] {
				used[id] = true
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	names := make([]PointName, 0, n)
	for id, u := range used {
		if u {
			p := an.Points[id]
			names = append(names, PointName{ID: id, Name: p.Out.Name(), Component: p.Component})
		}
	}
	return names
}

// LookupPoint returns the index of point id in a name table in ascending
// ID order, and whether the table holds it.
func LookupPoint(names []PointName, id int) (int, bool) {
	return slices.BinarySearchFunc(names, id, func(pn PointName, id int) int { return cmp.Compare(pn.ID, id) })
}

// Render names findings for output from names, a table in ascending ID
// order that holds every point their state diffs reference (PointNames
// builds it from an analysis). Its allocations do not grow with the number
// of state diffs: the named diffs share one array, and the reason texts
// are substrings of one string. The result shares the findings' Affected
// lists, and a finding without state diffs renders a nil list.
func Render(findings []*Finding, names []PointName) []NamedFinding {
	if len(findings) == 0 {
		return nil
	}
	var buf [128]byte
	total, size := 0, 0
	for _, f := range findings {
		total += len(f.StateDiffs)
		for j := range f.StateDiffs {
			size += len(f.StateDiffs[j].AppendReason(buf[:0]))
		}
	}
	out := make([]NamedFinding, len(findings))
	named := make([]NamedDiff, total)
	ends := make([]int, total)
	var text strings.Builder
	text.Grow(size)
	k := 0
	for i, f := range findings {
		out[i].Affected = f.Affected
		if len(f.StateDiffs) > 0 {
			out[i].StateDiffs = named[k : k+len(f.StateDiffs) : k+len(f.StateDiffs)]
		}
		for j := range f.StateDiffs {
			sd := &f.StateDiffs[j]
			at, ok := LookupPoint(names, sd.PointID)
			if !ok {
				panic(fmt.Sprintf("detect: the name table lacks point %d", sd.PointID))
			}
			p := &names[at]
			named[k] = NamedDiff{
				PointID: sd.PointID, Name: p.Name, Component: p.Component,
				IntvlA: sd.IntvlA, IntvlB: sd.IntvlB, Volatile: sd.Volatile, Persistent: sd.Persistent,
			}
			text.Write(sd.AppendReason(buf[:0]))
			ends[k] = text.Len()
			k++
		}
	}
	// Substrings are taken only once every reason is written, so they never
	// depend on the builder keeping its bytes in place.
	reasons := text.String()
	start := 0
	for k := range named {
		named[k].Reason = reasons[start:ends[k]]
		start = ends[k]
	}
	return out
}

// Finding turns a rendered finding back into its compact form, checking it
// against the analysis its point IDs index: every point must exist and
// carry the rendered name and component, and every reason text must parse
// back into reason bits and event counts.
func (nf *NamedFinding) Finding(an *trace.Analysis) (*Finding, error) {
	f := &Finding{Affected: nf.Affected}
	if len(nf.StateDiffs) > 0 {
		f.StateDiffs = make([]StateDiff, len(nf.StateDiffs))
	}
	for j := range nf.StateDiffs {
		nd := &nf.StateDiffs[j]
		if nd.PointID < 0 || nd.PointID >= len(an.Points) {
			return nil, fmt.Errorf("state diff %d: point %d out of range [0, %d)", j, nd.PointID, len(an.Points))
		}
		p := an.Points[nd.PointID]
		if nd.Name != p.Out.Name() || nd.Component != p.Component {
			return nil, fmt.Errorf("state diff %d: point %d is %s (%s) in the analysis, not %s (%s)",
				j, nd.PointID, p.Out.Name(), p.Component, nd.Name, nd.Component)
		}
		sd := &f.StateDiffs[j]
		*sd = StateDiff{PointID: nd.PointID, IntvlA: nd.IntvlA, IntvlB: nd.IntvlB, Volatile: nd.Volatile, Persistent: nd.Persistent}
		if err := sd.parseReason(nd.Reason); err != nil {
			return nil, fmt.Errorf("state diff %d: %w", j, err)
		}
	}
	return f, nil
}
