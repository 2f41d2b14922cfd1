package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/hdl/gen"
	"sonar/internal/trace"
)

// activityRig is one lane simulator of a differential run plus the lane
// hook stream it produced.
type activityRig struct {
	ls     *LaneSimulator
	events [hdl.Lanes][]simEvent
}

// newActivityRig elaborates cfg, compiles it (with the monitor keep set
// when opt is set, so the fused, folded and collapsed node kinds appear)
// and records every lane hook on wires and registers.
func newActivityRig(t *testing.T, cfg gen.Config, opt bool) *activityRig {
	t.Helper()
	n, err := gen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var keep []*hdl.Signal
	if opt {
		keep = keepForMonitor(trace.Analyze(n))
	}
	ls, err := NewLanesOpt(n, CompileOptions{Keep: keep})
	if err != nil {
		t.Fatal(err)
	}
	r := &activityRig{ls: ls}
	for _, s := range n.Signals() {
		if s.Kind() != hdl.Wire && s.Kind() != hdl.Reg {
			continue
		}
		ls.WatchLanes(s, func(sig *hdl.Signal, lane int, old, new uint64, cycle int64) {
			r.events[lane] = append(r.events[lane], simEvent{sig.ID(), old, new, cycle})
		})
	}
	return r
}

// pokeActivity applies write number k between ticks of cycle c through one
// of the plane's typed mutators or the simulator's poke methods, aimed at a
// signal picked by (seed, c) among inputs, wires and registers. The same
// call on two rigs of one design writes the same words.
func pokeActivity(t *testing.T, r *activityRig, seed int64, c, k int) {
	t.Helper()
	n := r.ls.Netlist()
	var sigs []*hdl.Signal
	for _, s := range n.Signals() {
		if !s.IsConst() {
			sigs = append(sigs, s)
		}
	}
	x := testVal(seed, c, k, 99)
	s := sigs[x%uint64(len(sigs))]
	lane := int(x>>32) % hdl.Lanes
	v := testVal(seed, c, k, 7)
	p := r.ls.Plane()
	var err error
	switch k % 6 {
	case 0:
		p.Set(s, lane, v)
	case 1:
		p.SetWord(s, int(x>>40)%s.Width(), v)
	case 2:
		p.Broadcast(s, v)
	case 3:
		// The scalar plane of spilled signals is evaluator scratch, so
		// give every signal a defined scalar value before broadcasting.
		for i, sig := range sigs {
			sig.Set(testVal(seed, c, i, 3))
		}
		p.LoadScalar()
	case 4:
		err = r.ls.PokeLane(s.Name(), lane, v)
	case 5:
		err = r.ls.PokeAll(s.Name(), v)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestLaneActivityMatchesFullEval is the activity-driven evaluator's
// differential harness. Two lane simulators of one generated design run the
// same stimulus; before every Eval the reference is forced to mark every
// node, which makes it the full sweep. After every cycle the plane words
// must match, and at the end every lane's hook stream must too. Inputs
// change every hold cycles through SetLane, so long holds leave most nodes
// clean; between ticks the harness also writes inputs, wires and registers
// through every plane mutator and poke method, and a mid-run Reset restarts
// both.
func TestLaneActivityMatchesFullEval(t *testing.T) {
	const cycles = 48
	for _, prims := range []float64{0.3, -1} {
		for _, opt := range []bool{false, true} {
			for _, hold := range []int{1, 3, 8} {
				for seed := int64(0); seed < 3; seed++ {
					name := fmt.Sprintf("prims=%v/opt=%v/hold=%d/seed=%d", prims > 0, opt, hold, seed)
					cfg := gen.Config{Seed: seed, Nodes: 48, Regs: 6, Arbiters: 2, PrimShare: prims}
					t.Run(name, func(t *testing.T) {
						testActivityMatchesFull(t, cfg, opt, hold, cycles)
					})
				}
			}
		}
	}
}

func testActivityMatchesFull(t *testing.T, cfg gen.Config, opt bool, hold, cycles int) {
	act, full := newActivityRig(t, cfg, opt), newActivityRig(t, cfg, opt)
	if prims := act.ls.SpilledNodes() > 0; prims != (cfg.PrimShare > 0) {
		t.Fatalf("spilled nodes %d at PrimShare %v", act.ls.SpilledNodes(), cfg.PrimShare)
	}
	inputs := genInputsOf(act.ls.Netlist())
	pending, quiet := 0, 0
	k := 0
	for c := 0; c < cycles; c++ {
		if c == cycles/2 {
			act.ls.Reset()
			full.ls.Reset()
		}
		wrote := false
		if c%hold == 0 {
			for ii, in := range inputs {
				for lane := 0; lane < hdl.Lanes; lane++ {
					v := testVal(cfg.Seed, c, lane, ii)
					act.ls.SetLane(in, lane, v)
					full.ls.SetLane(full.ls.Netlist().SignalByID(in.ID()), lane, v)
				}
			}
			wrote = true
		}
		if c%5 == 2 {
			pokeActivity(t, act, cfg.Seed, c, k)
			pokeActivity(t, full, cfg.Seed, c, k)
			k++
			wrote = true
		}
		if !wrote {
			// Nothing was written since the last Tick, so the dirty set
			// is exactly what the coming Eval evaluates.
			for _, m := range act.ls.dirty {
				pending += bits.OnesCount64(m)
			}
			quiet++
		}
		full.ls.markAll()
		act.ls.Tick()
		full.ls.Tick()
		if !slices.Equal(act.ls.Plane().Words(), full.ls.Plane().Words()) {
			for _, s := range act.ls.Netlist().Signals() {
				for lane := 0; lane < hdl.Lanes; lane++ {
					got := act.ls.Plane().Get(s, lane)
					want := full.ls.Plane().Get(full.ls.Netlist().SignalByID(s.ID()), lane)
					if got != want {
						t.Fatalf("cycle %d lane %d signal %s: activity=%#x full=%#x", c, lane, s.Name(), got, want)
					}
				}
			}
		}
	}
	for lane := 0; lane < hdl.Lanes; lane++ {
		ae, fe := act.events[lane], full.events[lane]
		if len(ae) != len(fe) {
			t.Fatalf("lane %d: %d activity events vs %d full-sweep events", lane, len(ae), len(fe))
		}
		for i := range ae {
			if ae[i] != fe[i] {
				t.Fatalf("lane %d event %d: activity %+v full %+v", lane, i, ae[i], fe[i])
			}
		}
		if len(ae) == 0 {
			t.Fatalf("lane %d observed no events; stimulus too weak", lane)
		}
	}
	if quiet > 0 && pending >= quiet*len(act.ls.order) {
		t.Fatalf("quiet cycles evaluated %d of %d nodes; nothing was skipped", pending, quiet*len(act.ls.order))
	}
}

// TestLaneTickAllocFree pins that a steady-state SetLane plus Tick, with
// lane hooks installed and prims on the spill path, touches no heap: the
// reader marking, the touched drain and the register latch all work on
// buffers sized at compile time.
func TestLaneTickAllocFree(t *testing.T) {
	n, err := gen.New(gen.Config{Seed: 3, Nodes: 48, Regs: 6, Arbiters: 2, PrimShare: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLanesOpt(n, CompileOptions{Keep: keepForMonitor(trace.Analyze(n))})
	if err != nil {
		t.Fatal(err)
	}
	if ls.SpilledNodes() == 0 {
		t.Fatal("design has no prim nodes; spill path unexercised")
	}
	fired := 0
	for _, s := range n.Signals() {
		ls.WatchLanes(s, func(*hdl.Signal, int, uint64, uint64, int64) { fired++ })
	}
	inputs := genInputsOf(n)
	i := 0
	step := func() {
		in := inputs[i%len(inputs)]
		ls.SetLane(in, i%hdl.Lanes, testVal(3, i, 0, 0))
		ls.Tick()
		i++
	}
	for j := 0; j < 8; j++ {
		step()
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Errorf("steady-state SetLane+Tick allocates %.1f objects/run, want 0", allocs)
	}
	if fired == 0 {
		t.Error("no lane hook fired; stimulus too weak")
	}
}
