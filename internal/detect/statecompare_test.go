package detect

import (
	"fmt"
	"reflect"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/monitor"
	"sonar/internal/trace"
)

// compareRig is a netlist of independent two-request contention points,
// one per module, under a monitor.
type compareRig struct {
	net    *hdl.Netlist
	valids [][2]*hdl.Signal
	an     *trace.Analysis
	mon    *monitor.Monitor
}

// newCompareRig builds the rig.
func newCompareRig(t *testing.T, points int) *compareRig {
	t.Helper()
	n := hdl.NewNetlist("C")
	r := &compareRig{net: n}
	for k := 0; k < points; k++ {
		m := n.Module(fmt.Sprintf("p%d", k))
		var v, d [2]*hdl.Signal
		for i, port := range []string{"a", "b"} {
			v[i] = m.Wire("io_"+port+"_valid", 1)
			d[i] = m.Wire("io_"+port+"_bits", 8)
		}
		m.Mux("out", m.Wire("sel", 1), d[0], d[1])
		r.valids = append(r.valids, v)
	}
	r.an = trace.Analyze(n)
	if got := len(r.an.Monitored()); got != points {
		t.Fatalf("monitored points = %d, want %d", got, points)
	}
	r.mon = monitor.New(r.an, monitor.Config{})
	return r
}

// run replays one execution from cycle 0: pulses[k] valid pulses of point
// k's request a, one per cycle, and returns its snapshot.
func (r *compareRig) run(pulses []int) *monitor.Snapshot {
	r.mon.Reset()
	r.net.SetCycle(0)
	r.mon.SetWindow(true)
	for k, n := range pulses {
		for i := 0; i < n; i++ {
			r.valids[k][0].Set(1)
			r.valids[k][0].Set(0)
			r.net.Step()
		}
	}
	return r.mon.Snapshot()
}

// Every reason-flag combination renders today's reason text byte for byte,
// and the text parses back into the same flags and counts.
func TestStateCompareReasons(t *testing.T) {
	cases := []struct {
		reason Reason
		text   string
	}{
		{0, ""},
		{ReasonStream, "request stream"},
		{ReasonCount, "event count 3 vs 6"},
		{ReasonStream | ReasonCount, "request stream, event count 3 vs 6"},
		{ReasonIntvl, "reqsIntvl"},
		{ReasonStream | ReasonIntvl, "request stream, reqsIntvl"},
		{ReasonCount | ReasonIntvl, "event count 3 vs 6, reqsIntvl"},
		{ReasonStream | ReasonCount | ReasonIntvl, "request stream, event count 3 vs 6, reqsIntvl"},
		{ReasonRevisit, "same-path revisit"},
		{ReasonStream | ReasonRevisit, "request stream, same-path revisit"},
		{ReasonCount | ReasonRevisit, "event count 3 vs 6, same-path revisit"},
		{ReasonStream | ReasonCount | ReasonRevisit, "request stream, event count 3 vs 6, same-path revisit"},
		{ReasonIntvl | ReasonRevisit, "reqsIntvl, same-path revisit"},
		{ReasonStream | ReasonIntvl | ReasonRevisit, "request stream, reqsIntvl, same-path revisit"},
		{ReasonCount | ReasonIntvl | ReasonRevisit, "event count 3 vs 6, reqsIntvl, same-path revisit"},
		{Reasons, "request stream, event count 3 vs 6, reqsIntvl, same-path revisit"},
	}
	if len(cases) != int(Reasons)+1 {
		t.Fatalf("table covers %d combinations, want %d", len(cases), Reasons+1)
	}
	r := newCompareRig(t, 1)
	for _, c := range cases {
		t.Run(fmt.Sprintf("%04b", c.reason), func(t *testing.T) {
			a, b := r.run([]int{1}), r.run([]int{1})
			pa, pb := &a.Points[0], &b.Points[0]
			pa.EventCount, pb.EventCount = 3, 3
			pa.MinIntvlDistinct, pb.MinIntvlDistinct = 5, 5
			pa.VolatileContention = true
			if c.reason&ReasonStream != 0 {
				pb.Digest++
			}
			if c.reason&ReasonCount != 0 {
				pb.EventCount = 6
			}
			if c.reason&ReasonIntvl != 0 {
				pb.MinIntvlDistinct = 9
			}
			if c.reason&ReasonRevisit != 0 {
				pb.PersistentCandidate = !pa.PersistentCandidate
			}
			got := StateCompare(nil, a, b)
			if c.reason == 0 {
				if len(got) != 0 {
					t.Fatalf("identical states diverged: %+v", got)
				}
				return
			}
			if len(got) != 1 {
				t.Fatalf("got %d diffs, want 1", len(got))
			}
			sd := got[0]
			want := StateDiff{
				PointID: pa.Point.ID, Reason: c.reason, IntvlA: 5, IntvlB: pb.MinIntvlDistinct,
				Volatile: true, Persistent: c.reason&ReasonRevisit != 0,
			}
			if c.reason&ReasonCount != 0 {
				want.CountA, want.CountB = 3, 6
			}
			if sd != want {
				t.Errorf("diff = %+v, want %+v", sd, want)
			}
			if text := string(sd.AppendReason(nil)); text != c.text {
				t.Errorf("reason text %q, want %q", text, c.text)
			}
			var back StateDiff
			if err := back.parseReason(c.text); err != nil || back.Reason != sd.Reason || back.CountA != sd.CountA || back.CountB != sd.CountB {
				t.Errorf("parse %q = %+v, %v", c.text, back, err)
			}
		})
	}
}

// The diffs come out in ascending point ID order.
func TestStateCompareOrdersByPointID(t *testing.T) {
	r := newCompareRig(t, 9)
	got := StateCompare(nil, r.run([]int{1, 0, 2, 3, 0, 1, 4, 0, 2}), r.run([]int{2, 1, 2, 1, 0, 3, 4, 1, 0}))
	if len(got) < 5 {
		t.Fatalf("only %d diffs; the stimulus should diverge at most points", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].PointID >= got[i].PointID {
			t.Fatalf("diffs not in ascending point ID order: %+v", got)
		}
	}
}

// A warm dst makes the comparison allocation-free.
func TestStateCompareWarmDstAllocatesNothing(t *testing.T) {
	r := newCompareRig(t, 9)
	a, b := r.run([]int{1, 0, 2, 3, 0, 1, 4, 0, 2}), r.run([]int{2, 1, 2, 1, 0, 3, 4, 1, 0})
	dst := StateCompare(nil, a, b)
	if allocs := testing.AllocsPerRun(100, func() { dst = StateCompare(dst, a, b) }); allocs != 0 {
		t.Errorf("StateCompare into a warm dst allocated %.1f times per call", allocs)
	}
}

// Rendering names every diff from the analysis's name table, round-trips
// through NamedFinding.Finding, and allocates the same whatever the diff count.
func TestRenderRoundTripAndFlatAllocs(t *testing.T) {
	an := namedAnalysis("lsu.a", "lsu.b", "exe.c", "tilelink.d")
	mk := func(diffsPer int) []*Finding {
		fs := []*Finding{{Affected: []Affected{{Idx: 1, CCDB: 2}}}, {Affected: []Affected{{Idx: 4, CCDA: 1}}}}
		for _, f := range fs {
			for i := 0; i < diffsPer; i++ {
				f.StateDiffs = append(f.StateDiffs, StateDiff{
					PointID: i % len(an.Points), Reason: ReasonStream | ReasonCount,
					CountA: i, CountB: i + 1, IntvlA: int64(i), IntvlB: 7,
				})
			}
		}
		fs = append(fs, &Finding{Affected: []Affected{{Idx: 9}}}) // no state diffs
		return fs
	}
	fs := mk(4)
	named := Render(fs, PointNames(fs, an))
	if named[2].StateDiffs != nil {
		t.Error("a finding without state diffs must render a nil list")
	}
	nd := named[1].StateDiffs[2]
	if nd.Name != "exe.c" || nd.Component != "exe" || nd.Reason != "request stream, event count 2 vs 3" {
		t.Errorf("rendered diff = %+v", nd)
	}
	for i := range named {
		back, err := named[i].Finding(an)
		if err != nil {
			t.Fatalf("finding %d: %v", i, err)
		}
		if !reflect.DeepEqual(back, fs[i]) {
			t.Errorf("finding %d round trip:\n got %+v\nwant %+v", i, back, fs[i])
		}
	}
	if Render(nil, nil) != nil || Render([]*Finding{}, nil) != nil {
		t.Error("no findings must render nil")
	}
	few, many := mk(4), mk(400)
	fewNames, manyNames := PointNames(few, an), PointNames(many, an)
	allocsFew := testing.AllocsPerRun(20, func() { Render(few, fewNames) })
	allocsMany := testing.AllocsPerRun(20, func() { Render(many, manyNames) })
	if allocsMany != allocsFew {
		t.Errorf("Render allocated %.0f times for 8 diffs and %.0f for 800", allocsFew, allocsMany)
	}
}

// A rendered finding that disagrees with the analysis, or whose reason
// does not parse, does not turn back into a compact one.
func TestNamedFindingRejectsMismatch(t *testing.T) {
	an := namedAnalysis("lsu.a", "exe.c")
	good := NamedDiff{PointID: 1, Name: "exe.c", Component: "exe", Reason: "request stream, event count 1 vs 2"}
	cases := []struct {
		name    string
		corrupt func(d *NamedDiff)
	}{
		{"foreign name", func(d *NamedDiff) { d.Name = "lsu.a" }},
		{"foreign component", func(d *NamedDiff) { d.Component = "lsu" }},
		{"point out of range", func(d *NamedDiff) { d.PointID = 2 }},
		{"empty reason", func(d *NamedDiff) { d.Reason = "" }},
		{"unknown state", func(d *NamedDiff) { d.Reason = "request stream, cache weather" }},
		{"reordered reasons", func(d *NamedDiff) { d.Reason = "event count 1 vs 2, request stream" }},
		{"bad counts", func(d *NamedDiff) { d.Reason = "event count one vs 2" }},
		{"equal counts", func(d *NamedDiff) { d.Reason = "event count 2 vs 2" }},
		{"negative count", func(d *NamedDiff) { d.Reason = "event count -1 vs 2" }},
		{"repeated state", func(d *NamedDiff) { d.Reason = "reqsIntvl, reqsIntvl" }},
		{"non-canonical count", func(d *NamedDiff) { d.Reason = "event count 01 vs 2" }},
	}
	if _, err := (&NamedFinding{StateDiffs: []NamedDiff{good}}).Finding(an); err != nil {
		t.Fatalf("good diff rejected: %v", err)
	}
	for _, c := range cases {
		d := good
		c.corrupt(&d)
		if _, err := (&NamedFinding{StateDiffs: []NamedDiff{d}}).Finding(an); err == nil {
			t.Errorf("%s: %+v accepted", c.name, d)
		}
	}
}
