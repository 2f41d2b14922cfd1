package fuzz

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sonar/internal/boom"
	"sonar/internal/monitor"
)

// activeEqual extends snapEqual to the sparse view: both snapshots must
// list the same active entries.
func activeEqual(t *testing.T, label string, a, b *monitor.Snapshot) {
	t.Helper()
	snapEqual(t, label, a, b)
	if !reflect.DeepEqual(a.Active(), b.Active()) {
		t.Fatalf("%s: active lists differ:\n%v\nvs\n%v", label, a.Active(), b.Active())
	}
}

// A monitor reused across executions must report exactly what a freshly
// built one reports for the same testcase: the dirty-list Reset and the
// incremental snapshot arena may carry nothing over. The sequence runs on
// the paper-scale BOOM (thousands of points) and puts executions with no
// in-window event (the monitoring window kept shut) right after executions
// with many, so every entry a wide capture made active in an arena must be
// idle again in the next capture into it.
func TestReusedDUTMatchesFresh(t *testing.T) {
	factory := SharedAnalysisFactory(boom.New)
	reused := factory()
	rng := rand.New(rand.NewSource(3))
	type step struct {
		tc     *Testcase
		secret uint64
		shut   bool // monitoring window kept closed for the whole run
	}
	var steps []step
	for i := 0; i < 2; i++ {
		steps = append(steps, step{tc: Generate(rng, false), secret: uint64(i)})
	}
	for i := 0; i < 2; i++ {
		steps = append(steps, step{tc: Generate(rng, false), secret: uint64(i), shut: true})
	}
	for i := 0; i < 2; i++ {
		steps = append(steps, step{tc: Generate(rng, false), secret: uint64(i)})
	}
	run := func(d *DUT, s step) *Execution {
		if s.shut {
			for _, c := range d.SoC.Cores {
				c.SetWindowObserver(nil)
			}
			defer func() {
				for _, c := range d.SoC.Cores {
					c.SetWindowObserver(&windowGate{d})
				}
			}()
		}
		return d.Execute(s.tc, s.secret)
	}
	for i, s := range steps {
		got := run(reused, s)
		want := run(factory(), s)
		label := fmt.Sprintf("step %d (shut=%v)", i, s.shut)
		activeEqual(t, label, want.Snap, got.Snap)
		switch n := len(got.Snap.Active()); {
		case s.shut && n != 0:
			t.Fatalf("%s: %d active points with the window shut", label, n)
		case !s.shut && n < 20:
			t.Fatalf("%s: only %d active points; the sequence needs wide executions", label, n)
		}
	}
}

// The LaneDUT counterpart: one LaneDUT reused across groups must match a
// fresh LaneDUT per testcase. The groups switch between one pair per pass
// and lane passes of different widths, so the group arenas are refilled
// from a different lane of the bank than last time, and a pass's unused
// lanes carry whatever the previous pass left in them until its reset.
// Within each group the testcase with the most events comes first and the
// one with the fewest right after it.
func TestReusedLaneDUTMatchesFresh(t *testing.T) {
	factory := netExecFactory(t)
	probe := factory().(*LaneDUT)
	rng := rand.New(rand.NewSource(9))
	type ranked struct {
		tc     *Testcase
		events int
	}
	pool := make([]ranked, 24)
	for i := range pool {
		tc := Generate(rng, true)
		snap := probe.Execute(tc, 0).Snap
		for _, pi := range snap.Active() {
			pool[i].events += snap.Points[pi].EventCount
		}
		pool[i].tc = tc
	}
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].events > pool[j].events })
	t.Logf("events per execution: most %d, fewest %d", pool[0].events, pool[len(pool)-1].events)
	if pool[0].events <= pool[len(pool)-1].events {
		t.Fatalf("testcase pool has uniform activity %d; pick another seed", pool[0].events)
	}
	var groups [][]*Testcase
	for g := 0; g < len(pool)/2; g += 3 {
		// most, fewest, next most, next fewest, ...
		groups = append(groups, []*Testcase{
			pool[g].tc, pool[len(pool)-1-g].tc,
			pool[g+1].tc, pool[len(pool)-2-g].tc,
			pool[g+2].tc, pool[len(pool)-3-g].tc,
		})
	}
	const secretA, secretB = 0, 1
	reused := factory().(*LaneDUT)
	chunks := []int{1, 64, 1, 4}
	for gi, tcs := range groups {
		chunk := chunks[gi%len(chunks)]
		pairs := reused.ExecuteGroup(tcs, secretA, secretB, chunk, nil)
		for i, tc := range tcs {
			want := factory().(*LaneDUT).ExecuteGroup([]*Testcase{tc}, secretA, secretB, 1, nil)[0]
			label := fmt.Sprintf("group %d chunk=%d pair %d", gi, chunk, i)
			activeEqual(t, label+" A", want.A.Snap, pairs[i].A.Snap)
			activeEqual(t, label+" B", want.B.Snap, pairs[i].B.Snap)
		}
	}
	// The single-execution path reuses lane 0 and the group arena's first
	// two slots.
	for i, tc := range groups[0] {
		want := factory().(*LaneDUT).Execute(tc, secretB)
		activeEqual(t, fmt.Sprintf("Execute %d", i), want.Snap, reused.Execute(tc, secretB).Snap)
	}
}
