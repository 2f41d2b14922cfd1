package detect

import (
	"fmt"
	"sort"
	"strings"

	"sonar/internal/trace"
)

// ChannelClass is a family of contention side channels, following the
// paper's Table 3 grouping by shared resource.
type ChannelClass struct {
	// Family is the resource family label ("TileLink", "MSHR", ...).
	Family string
	// Paper lists the Table 3 channel IDs the family covers.
	Paper string
	// Kind is "volatile", "persistent", or "mixed".
	Kind string
	// Points counts the implicated contention points.
	Points int
	// MaxDelta is the largest CCD change attributed to the family.
	MaxDelta int64
}

// classifierRule maps contention-point names to a resource family.
type classifierRule struct {
	family   string
	paper    string
	contains []string
}

// rules are ordered most-specific first.
var rules = []classifierRule{
	{"TileLink D-Channel", "S1-S4", []string{"tilelink.io_req", "tilelink.d_channel"}},
	{"MSHR", "S5", []string{"mshr"}},
	{"Read LineBuffer", "S6", []string{"rlb"}},
	{"Write LineBuffer", "S7", []string{"wlb"}},
	{"EXE writeback port", "S8", []string{"exe.wb"}},
	{"Div unit", "S9", []string{"exe.div"}},
	{"MDU", "S13", []string{"mdu"}},
	{"ICache", "S2, S14", []string{"icache"}},
	{"DCache", "S10-S12", []string{"dcache"}},
	{"Frontend structures", "-", []string{"frontend"}},
	{"ROB structures", "-", []string{"rob."}},
	{"Issue/regfile structures", "-", []string{"exe."}},
	{"LSU structures", "-", []string{"lsu."}},
	{"Bus structures", "-", []string{"tilelink."}},
}

// classify maps a contention-point name to its family rule index, or -1.
func classify(name string) int {
	for i, r := range rules {
		for _, sub := range r.contains {
			if strings.Contains(name, sub) {
				return i
			}
		}
	}
	return -1
}

// Classify aggregates a set of findings into channel families: which shared
// resources the dual-differential comparison implicates, how many points,
// and the largest timing impact. This is the "justification" step of §7.2
// turned into a report. Points are named by the analysis their IDs index.
func Classify(findings []*Finding, an *trace.Analysis) []ChannelClass {
	type agg struct {
		points     map[int]bool
		volatile   bool
		persistent bool
		maxDelta   int64
	}
	byRule := make(map[int]*agg)
	for _, f := range findings {
		delta := f.MaxDelta()
		for _, sd := range f.StateDiffs {
			ri := classify(an.Points[sd.PointID].Out.Name())
			if ri < 0 {
				continue
			}
			a := byRule[ri]
			if a == nil {
				a = &agg{points: make(map[int]bool)}
				byRule[ri] = a
			}
			a.points[sd.PointID] = true
			a.volatile = a.volatile || sd.Volatile
			a.persistent = a.persistent || sd.Persistent
			if delta > a.maxDelta {
				a.maxDelta = delta
			}
		}
	}
	idxs := make([]int, 0, len(byRule))
	for i := range byRule { //sonar:nondeterministic-ok keys collected then sorted
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]ChannelClass, 0, len(idxs))
	for _, i := range idxs {
		a := byRule[i]
		kind := "volatile"
		switch {
		case a.volatile && a.persistent:
			kind = "mixed"
		case a.persistent:
			kind = "persistent"
		}
		out = append(out, ChannelClass{
			Family:   rules[i].family,
			Paper:    rules[i].paper,
			Kind:     kind,
			Points:   len(a.points),
			MaxDelta: a.maxDelta,
		})
	}
	return out
}

// RenderClasses formats a channel-family summary.
func RenderClasses(cs []ChannelClass) string {
	if len(cs) == 0 {
		return "no channel families implicated\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %-10s %-10s %7s %9s\n", "shared resource", "paper", "kind", "points", "max Δ")
	for _, c := range cs {
		fmt.Fprintf(&b, "%-26s %-10s %-10s %7d %8dc\n", c.Family, c.Paper, c.Kind, c.Points, c.MaxDelta)
	}
	return b.String()
}
