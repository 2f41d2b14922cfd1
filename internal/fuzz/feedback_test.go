package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/monitor"
	"sonar/internal/trace"
)

// vec is the feedback vector of an interval map: its entries in ascending
// point order.
func vec(m map[int]int64) []PointIntvl {
	s := make([]PointIntvl, 0, len(m))
	for id, v := range m {
		s = append(s, PointIntvl{Point: id, Intvl: v})
	}
	slices.SortFunc(s, func(x, y PointIntvl) int { return x.Point - y.Point })
	return s
}

// referenceFeedback is the map min-fold the feedback vector replaced: the
// distinct-request interval of each point of a, lowered by b's.
func referenceFeedback(a, b *monitor.Snapshot) map[int]int64 {
	m := map[int]int64{}
	for _, i := range a.Active() {
		if p := &a.Points[i]; p.MinIntvlDistinct != monitor.NoInterval {
			m[p.Point.ID] = p.MinIntvlDistinct
		}
	}
	for _, i := range b.Active() {
		p := &b.Points[i]
		if v := p.MinIntvlDistinct; v != monitor.NoInterval {
			if old, ok := m[p.Point.ID]; !ok || v < old {
				m[p.Point.ID] = v
			}
		}
	}
	return m
}

// pointRig is a netlist of independent two-request contention points under
// a monitor.
type pointRig struct {
	net   *hdl.Netlist
	valid [][2]*hdl.Signal // per point, its requests' valids
	mon   *monitor.Monitor
}

func newPointRig(t *testing.T, points int) *pointRig {
	t.Helper()
	r := &pointRig{net: hdl.NewNetlist("P")}
	m := r.net.Module("dut")
	for k := 0; k < points; k++ {
		var bits [2]*hdl.Signal
		var valid [2]*hdl.Signal
		for q, name := range []string{"a", "b"} {
			valid[q] = m.Wire(fmt.Sprintf("io_p%d_%s_valid", k, name), 1)
			bits[q] = m.Wire(fmt.Sprintf("io_p%d_%s_bits", k, name), 32)
		}
		m.Mux(fmt.Sprintf("out%d", k), m.Wire(fmt.Sprintf("sel%d", k), 1), bits[0], bits[1])
		r.valid = append(r.valid, valid)
	}
	an := trace.Analyze(r.net)
	if got := len(an.Monitored()); got != points {
		t.Fatalf("monitored points = %d, want %d", got, points)
	}
	r.mon = monitor.New(an, monitor.Config{})
	return r
}

// run records one execution of random valid pulses over a few cycles: per
// point, nothing, one request's pulses alone (events but no distinct
// interval), or both requests' (a distinct interval). Every point falls
// silent with probability quiet, so some runs are empty.
func (r *pointRig) run(rng *rand.Rand, quiet float64) *monitor.Snapshot {
	r.mon.Reset()
	r.mon.SetWindow(true)
	kind := make([]int, len(r.valid))
	for k := range kind {
		if rng.Float64() >= quiet {
			kind[k] = 1 + rng.Intn(2) // 1: one request, 2: both
		}
	}
	for cycle := 0; cycle < 8; cycle++ {
		for k, v := range r.valid {
			for q := 0; q < kind[k]; q++ {
				if rng.Intn(3) == 0 {
					v[q].Set(1)
					v[q].Set(0)
				}
			}
		}
		r.net.Step()
	}
	return r.mon.Snapshot()
}

// The feedback merge walk equals the map min-fold it replaced, over random
// snapshot pairs with one-sided points, points without a distinct interval
// and empty snapshots, whether it starts a new vector or writes over a
// recycled one whose old entries, including its spare capacity, are junk.
func TestFeedbackMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := newPointRig(t, 12)
	kinds := map[string]int{}
	var recycled []PointIntvl
	for trial := 0; trial < 400; trial++ {
		quiet := []float64{0.2, 0.6, 1}[trial%3]
		a, b := r.run(rng, quiet), r.run(rng, quiet)
		ref := referenceFeedback(a, b)
		for _, dst := range []struct {
			name string
			v    []PointIntvl
		}{{"new", nil}, {"recycled", recycled}} {
			junk := dst.v[:cap(dst.v)]
			for i := range junk {
				junk[i] = PointIntvl{Point: -1 - i, Intvl: -1}
			}
			got := feedback(dst.v, a, b)
			if want := vec(ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %s vector: feedback %v, reference %v", trial, dst.name, got, want)
			}
			if got == nil {
				t.Fatalf("trial %d, %s vector: feedback is nil", trial, dst.name)
			}
			if dst.v != nil {
				if cap(got) > 0 && &got[:1][0] == &dst.v[:1][0] {
					kinds["recycled storage"]++
				}
				recycled = got
			}
		}
		if recycled == nil {
			recycled = make([]PointIntvl, 3, 4)
		}
		if len(a.Active())+len(b.Active()) == 0 {
			kinds["empty"]++
		}
		for _, s := range []*monitor.Snapshot{a, b} {
			for _, i := range s.Active() {
				if s.Points[i].MinIntvlDistinct == monitor.NoInterval {
					kinds["no interval"]++
				}
			}
		}
		for _, i := range a.Active() {
			if b.Points[i].EventCount == 0 {
				kinds["one-sided"]++
			}
		}
	}
	for _, k := range []string{"empty", "no interval", "one-sided", "recycled storage"} {
		if kinds[k] == 0 {
			t.Errorf("no trial covered %s snapshots", k)
		}
	}
}

// Views and grants share the corpus best vector without a copy, so a fold
// must replace it rather than write it: a view or lease taken before a
// fold still reads the pre-fold best, byte for byte, and a reader running
// alongside the fold races with nothing (CI runs this under -race).
func TestSharedBestSurvivesFold(t *testing.T) {
	c := NewCorpus()
	c.Offer(&Seed{TC: &Testcase{}, Intvls: vec(map[int]int64{1: 9, 4: 7, 8: 5}), Dir: +1, Target: -1})
	v := c.view()
	before := mustMarshal(t, v.best)
	read := make(chan []byte, 1)
	go func() {
		b, _ := json.Marshal(v.best)
		read <- b
	}()
	for _, m := range []map[int]int64{{1: 3}, {0: 2, 4: 1, 9: 6}, {8: 0}} {
		if !c.Offer(&Seed{TC: &Testcase{}, Intvls: vec(m), Dir: +1, Target: -1}) {
			t.Fatalf("offer %v not retained", m)
		}
	}
	if during, after := <-read, mustMarshal(t, v.best); !bytes.Equal(during, before) || !bytes.Equal(after, before) {
		t.Errorf("view best moved under folds: %s, then %s and %s", before, during, after)
	}
	if v.Len() != 1 {
		t.Errorf("view holds %d seeds, want 1", v.Len())
	}

	opt := SonarOptions(24)
	opt.Workers, opt.BatchSize = 2, 4
	lc := NewLeaseCoordinator(liteFactory(), opt)
	folded := false
	for !lc.Finished() {
		var grants []*Lease
		var results []*LeaseResult
		for _, shard := range openShards(lc) {
			l, err := lc.Lease(shard, CorpusRef{})
			if err != nil {
				t.Fatalf("Lease(%d): %v", shard, err)
			}
			res, _, err := ExecuteLease(liteExec(), lc.Shape(), l, nil)
			if err != nil {
				t.Fatalf("ExecuteLease: %v", err)
			}
			grants, results = append(grants, l), append(results, res)
		}
		before := mustMarshal(t, grants[0].Corpus.Best)
		// A re-offered lease runs on, reading the grant's best, while the
		// round closes and folds.
		rerun := make(chan *LeaseResult, 1)
		go func() {
			res, _, _ := ExecuteLease(liteExec(), lc.Shape(), grants[0], nil)
			rerun <- res
		}()
		for _, res := range results {
			if err := lc.Report(res); err != nil {
				t.Fatalf("Report: %v", err)
			}
		}
		if res := <-rerun; !reflect.DeepEqual(res, results[0]) {
			t.Fatalf("round %d: the lease re-executed alongside the fold reported differently", lc.Round())
		}
		for i, l := range grants {
			if got := mustMarshal(t, l.Corpus.Best); !bytes.Equal(got, before) {
				t.Fatalf("round %d grant %d best moved under the fold: %s, then %s", lc.Round(), i, before, got)
			}
		}
		folded = folded || !bytes.Equal(mustMarshal(t, lc.corpusWire(0).Best), before)
	}
	if !folded {
		t.Error("no round folded a new best; the test checked nothing")
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
