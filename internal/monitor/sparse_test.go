package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/trace"
)

// multiRig is a netlist of independent two-request contention points, one
// per module, so executions can touch any subset of them.
type multiRig struct {
	net    *hdl.Netlist
	valids [][2]*hdl.Signal
	datas  [][2]*hdl.Signal
	mon    *Monitor
}

func newMultiRig(t *testing.T, points int) *multiRig {
	t.Helper()
	n := hdl.NewNetlist("M")
	r := &multiRig{net: n}
	for k := 0; k < points; k++ {
		m := n.Module(fmt.Sprintf("p%d", k))
		var v, d [2]*hdl.Signal
		for i, port := range []string{"a", "b"} {
			v[i] = m.Wire("io_"+port+"_valid", 1)
			d[i] = m.Wire("io_"+port+"_bits", 32)
		}
		m.Mux("out", m.Wire("sel", 1), d[0], d[1])
		r.valids = append(r.valids, v)
		r.datas = append(r.datas, d)
	}
	a := trace.Analyze(n)
	if got := len(a.Monitored()); got != points {
		t.Fatalf("monitored points = %d, want %d", got, points)
	}
	r.mon = New(a, Config{})
	return r
}

// execute replays a random burst of valid pulses on a random subset of the
// points, some of them outside the monitoring window, from cycle 0.
func (r *multiRig) execute(rng *rand.Rand, touched int) {
	r.net.SetCycle(0)
	r.mon.SetWindow(true)
	for e := 0; e < 3*touched; e++ {
		k := rng.Intn(touched) * len(r.valids) / touched
		req := rng.Intn(2)
		r.datas[k][req].Set(uint64(rng.Intn(4)))
		pulse(r.valids[k][req])
		if rng.Intn(3) == 0 {
			r.net.Step()
		}
		if rng.Intn(8) == 0 {
			r.mon.SetWindow(!r.mon.WindowOpen())
		}
	}
}

// samePoints reports whether two snapshots of identically built rigs hold
// the same records; Point pointers differ between rigs, so points compare
// by ID.
func samePoints(a, b *Snapshot) bool {
	if len(a.Points) != len(b.Points) || !reflect.DeepEqual(a.Active(), b.Active()) {
		return false
	}
	for i := range a.Points {
		pa, pb := a.Points[i], b.Points[i]
		if pa.Point.ID != pb.Point.ID {
			return false
		}
		pa.Point, pb.Point = nil, nil
		if !reflect.DeepEqual(pa, pb) {
			return false
		}
	}
	return true
}

// Active lists, ascending, exactly the entries that differ from the idle
// record; a reused monitor and arena capture the same snapshot as a fresh
// monitor replaying the same execution, however many or few points the
// previous execution touched.
func TestActiveListsExactlyTheNonIdlePoints(t *testing.T) {
	const points = 40
	r := newMultiRig(t, points)
	idle := r.mon.Snapshot()
	if len(idle.Active()) != 0 {
		t.Fatalf("construction snapshot has active points %v", idle.Active())
	}
	rng := rand.New(rand.NewSource(11))
	var arena Snapshot
	for run := 0; run < 60; run++ {
		r.mon.Reset()
		// Alternate wide and narrow executions so stale entries from a wide
		// capture must be cleared by the next, narrower one.
		touched := 1 + rng.Intn(points)
		if run%2 == 1 {
			touched = rng.Intn(3)
		}
		seed := rng.Int63()
		r.execute(rand.New(rand.NewSource(seed)), touched)
		r.mon.SnapshotInto(&arena)
		fresh := newMultiRig(t, points)
		fresh.execute(rand.New(rand.NewSource(seed)), touched)
		if !samePoints(&arena, fresh.mon.Snapshot()) {
			t.Fatalf("run %d: reused monitor and arena differ from a fresh monitor", run)
		}
		if !reflect.DeepEqual(arena.Points, r.mon.Snapshot().Points) {
			t.Fatalf("run %d: reused arena differs from a fresh snapshot", run)
		}
		act := arena.Active()
		for j := 1; j < len(act); j++ {
			if act[j-1] >= act[j] {
				t.Fatalf("run %d: Active not strictly ascending: %v", run, act)
			}
		}
		next := 0
		for i := range arena.Points {
			listed := next < len(act) && act[next] == i
			if listed {
				next++
			}
			isIdle := reflect.DeepEqual(arena.Points[i], idle.Points[i])
			if listed == isIdle {
				t.Fatalf("run %d: point %d listed=%v but idle=%v", run, i, listed, isIdle)
			}
		}
	}
}

// After Reset a snapshot equals the one taken at construction: the dirty
// list returns every touched state to idle.
func TestResetSnapshotEqualsConstruction(t *testing.T) {
	r := newMultiRig(t, 24)
	want := r.mon.Snapshot()
	rng := rand.New(rand.NewSource(5))
	var arena Snapshot
	for run := 0; run < 20; run++ {
		r.execute(rng, 1+rng.Intn(24))
		r.mon.SnapshotInto(&arena)
		r.mon.Reset()
		r.mon.SnapshotInto(&arena)
		if !reflect.DeepEqual(arena.Points, want.Points) || len(arena.Active()) != 0 {
			t.Fatalf("run %d: snapshot after Reset differs from the construction snapshot", run)
		}
		if got := r.mon.Snapshot(); !reflect.DeepEqual(got.Points, want.Points) {
			t.Fatalf("run %d: fresh snapshot after Reset differs from the construction snapshot", run)
		}
	}
}

// Idle holds exactly while the monitor is as Reset leaves it with every
// watched valid at rest: an open window, a recorded event or a valid held
// high each clear it, and a whole pulse outside the window does not.
func TestIdle(t *testing.T) {
	r := newMultiRig(t, 3)
	if r.mon.Hooks() != 6 {
		t.Fatalf("Hooks() = %d, want one per watched valid (6)", r.mon.Hooks())
	}
	check := func(step string, want bool) {
		t.Helper()
		if got := r.mon.Idle(); got != want {
			t.Fatalf("after %s: Idle() = %v, want %v", step, got, want)
		}
	}
	check("construction", true)
	pulse(r.valids[0][0])
	check("a pulse with the window shut", true)
	r.valids[1][1].Set(1)
	check("a valid held high", false)
	r.valids[1][1].Set(0)
	check("the valid falling again", true)
	r.mon.SetWindow(true)
	check("opening the window", false)
	pulse(r.valids[2][0])
	r.mon.SetWindow(false)
	check("an event recorded in the window", false)
	r.mon.Reset()
	check("Reset", true)
}
