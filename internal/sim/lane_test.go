package sim

import (
	"fmt"
	"math/bits"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/hdl/gen"
)

// testVal derives a deterministic pseudo-random stimulus value from the test
// coordinates (splitmix-style), so the lane and scalar sides of a
// differential run agree on inputs without sharing an RNG.
func testVal(seed int64, cycle, lane, input int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(cycle)<<32 ^ uint64(lane)<<16 ^ uint64(input)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// simEvent is one watch-hook firing, keyed by dense signal id so events from
// independently elaborated netlists compare directly.
type simEvent struct {
	id       int
	old, new uint64
	cycle    int64
}

// perLane adapts a per-lane observer to the word hook: each call expands
// into one fn call per changed lane, in ascending lane order, with that
// lane's old and new values.
func perLane(fn func(s *hdl.Signal, lane int, old, new uint64, cycle int64)) hdl.LaneWatchFunc {
	return func(s *hdl.Signal, changed uint64, oldW, newW []uint64, cycle int64) {
		w := int32(len(newW))
		for m := changed; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			fn(s, lane, gather(oldW, w, lane), gather(newW, w, lane), cycle)
		}
	}
}

// TestLaneVsScalar is the lane evaluator's differential harness: for a range
// of generated (check-verified) netlists it runs one 64-lane simulation
// against 64 independent scalar simulations with per-lane stimulus, and
// after every cycle requires every signal in every lane to match the scalar
// reference — and every lane watch-hook sequence to match the scalar
// watcher sequence of that lane's reference run.
func TestLaneVsScalar(t *testing.T) {
	const cycles = 24
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := gen.Config{Seed: seed, Nodes: 40, Regs: 5, Arbiters: 2, PrimShare: 0.3}
			laneNet, err := gen.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ls, err := NewLanes(laneNet)
			if err != nil {
				t.Fatal(err)
			}
			if ls.SpilledNodes() == 0 {
				t.Fatalf("seed %d generated no prim nodes; spill path unexercised", seed)
			}

			var inputs []*hdl.Signal
			for _, s := range laneNet.Signals() {
				if s.Kind() == hdl.Input {
					inputs = append(inputs, s)
				}
			}

			var laneEvents [hdl.Lanes][]simEvent
			for _, s := range laneNet.Signals() {
				if s.Kind() != hdl.Wire && s.Kind() != hdl.Reg {
					continue
				}
				ls.WatchLanes(s, perLane(func(sig *hdl.Signal, lane int, old, new uint64, cycle int64) {
					laneEvents[lane] = append(laneEvents[lane], simEvent{sig.ID(), old, new, cycle})
				}))
			}

			var scalars [hdl.Lanes]*Simulator
			var scalarEvents [hdl.Lanes][]simEvent
			for lane := range scalars {
				net, err := gen.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				scalars[lane], err = New(net)
				if err != nil {
					t.Fatal(err)
				}
				l := lane
				for _, s := range net.Signals() {
					if s.Kind() != hdl.Wire && s.Kind() != hdl.Reg {
						continue
					}
					s.Watch(func(sig *hdl.Signal, old, new uint64, cycle int64) {
						scalarEvents[l] = append(scalarEvents[l], simEvent{sig.ID(), old, new, cycle})
					})
				}
			}

			for c := 0; c < cycles; c++ {
				for lane := 0; lane < hdl.Lanes; lane++ {
					ref := scalars[lane].Netlist()
					for ii, in := range inputs {
						v := testVal(seed, c, lane, ii)
						ls.Plane().Set(in, lane, v)
						ref.SignalByID(in.ID()).Set(v)
					}
				}
				ls.Tick()
				for lane := range scalars {
					scalars[lane].Tick()
				}
				for lane := 0; lane < hdl.Lanes; lane++ {
					ref := scalars[lane].Netlist()
					for _, s := range laneNet.Signals() {
						want := ref.SignalByID(s.ID()).Value()
						got := ls.Plane().Get(s, lane)
						if got != want {
							t.Fatalf("cycle %d lane %d signal %s: lane=%#x scalar=%#x",
								c, lane, s.Name(), got, want)
						}
					}
				}
			}

			for lane := 0; lane < hdl.Lanes; lane++ {
				le, se := laneEvents[lane], scalarEvents[lane]
				if len(le) != len(se) {
					t.Fatalf("lane %d: %d lane events vs %d scalar events", lane, len(le), len(se))
				}
				for i := range le {
					if le[i] != se[i] {
						t.Fatalf("lane %d event %d: lane %+v scalar %+v", lane, i, le[i], se[i])
					}
				}
				if len(le) == 0 {
					t.Fatalf("lane %d observed no events; stimulus too weak", lane)
				}
			}
		})
	}
}

// TestLaneMuxTruth checks the sliced mux equation on a hand-built circuit
// with divergent lane stimulus.
func TestLaneMuxTruth(t *testing.T) {
	n := hdl.NewNetlist("lanemux")
	m := n.Module("top")
	sel := m.Input("sel", 1)
	a := m.Input("a", 8)
	b := m.Input("b", 8)
	m.Mux("out", sel, a, b)
	ls, err := NewLanes(n)
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < hdl.Lanes; lane++ {
		ls.Plane().Set(sel, lane, uint64(lane)&1)
		ls.Plane().Set(a, lane, uint64(lane))
		ls.Plane().Set(b, lane, uint64(255-lane))
	}
	ls.Eval()
	for lane := 0; lane < hdl.Lanes; lane++ {
		want := uint64(255 - lane)
		if lane&1 == 1 {
			want = uint64(lane)
		}
		got := ls.Plane().Get(n.MustSignal("top.out"), lane)
		if got != want {
			t.Fatalf("lane %d: out=%d want %d", lane, got, want)
		}
	}
}

// TestLaneRegisterLatch checks per-lane register latching: registers update
// only at Tick and only in lanes whose enable is set.
func TestLaneRegisterLatch(t *testing.T) {
	n := hdl.NewNetlist("lanereg")
	m := n.Module("top")
	en := m.Input("en", 1)
	a := m.Input("a", 8)
	r := m.Reg("r", 8)
	m.MuxInto(r, en, a, r)
	ls, err := NewLanes(n)
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < hdl.Lanes; lane++ {
		ls.Plane().Set(en, lane, uint64(lane)&1)
		ls.Plane().Set(a, lane, uint64(lane))
	}
	ls.Eval() // combinational settle must not move the register
	for lane := 0; lane < hdl.Lanes; lane++ {
		if got := ls.Plane().Get(r, lane); got != 0 {
			t.Fatalf("lane %d: register moved on Eval: %d", lane, got)
		}
	}
	ls.Tick()
	for lane := 0; lane < hdl.Lanes; lane++ {
		want := uint64(0)
		if lane&1 == 1 {
			want = uint64(lane)
		}
		if got := ls.Plane().Get(r, lane); got != want {
			t.Fatalf("lane %d: r=%d want %d", lane, got, want)
		}
	}
	if ls.Cycle() != 1 {
		t.Fatalf("cycle = %d after one Tick", ls.Cycle())
	}
}

// TestLaneStoreLaneDemux checks that demuxing a lane back through the scalar
// plane reproduces that lane's state exactly, firing scalar watch hooks.
func TestLaneStoreLaneDemux(t *testing.T) {
	cfg := gen.Config{Seed: 11, Arbiters: 1}
	laneNet, err := gen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := NewLanes(laneNet)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []*hdl.Signal
	for _, s := range laneNet.Signals() {
		if s.Kind() == hdl.Input {
			inputs = append(inputs, s)
		}
	}
	for c := 0; c < 8; c++ {
		for lane := 0; lane < hdl.Lanes; lane++ {
			for ii, in := range inputs {
				ls.Plane().Set(in, lane, testVal(cfg.Seed, c, lane, ii))
			}
		}
		ls.Tick()
	}
	for _, lane := range []int{0, 17, 63} {
		ls.Plane().StoreLane(lane)
		for _, s := range laneNet.Signals() {
			if got, want := s.Value(), ls.Plane().Get(s, lane); got != want {
				t.Fatalf("lane %d signal %s: scalar=%#x plane=%#x", lane, s.Name(), got, want)
			}
		}
	}
}
