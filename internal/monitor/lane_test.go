package monitor

import (
	"fmt"
	"reflect"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/hdl/gen"
	"sonar/internal/sim"
	"sonar/internal/trace"
)

// laneStim derives deterministic per-lane input stimulus (same scheme as the
// sim package's differential harness).
func laneStim(seed int64, cycle, lane, input int) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(cycle)<<32 ^ uint64(lane)<<16 ^ uint64(input)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// TestLaneBankVsScalarMonitor is the monitor-level differential: a LaneBank
// over one 64-lane simulation must produce, per lane, exactly the snapshot a
// scalar Monitor produces over that lane's scalar replay — intervals, event
// logs, digests, trigger bits, all of it.
func TestLaneBankVsScalarMonitor(t *testing.T) {
	const cycles = 32
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := gen.Config{Seed: seed, Nodes: 30, Regs: 4, Arbiters: 3, PrimShare: 0.2}
			laneNet, err := gen.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ls, err := sim.NewLanes(laneNet)
			if err != nil {
				t.Fatal(err)
			}
			bank := NewLaneBank(trace.Analyze(laneNet), Config{}, ls)
			if bank.NumPoints() == 0 {
				t.Fatal("no monitorable points generated")
			}
			bank.Reset()
			bank.SetWindowAll(true)

			var inputs []*hdl.Signal
			for _, s := range laneNet.Signals() {
				if s.Kind() == hdl.Input {
					inputs = append(inputs, s)
				}
			}

			var scalars [hdl.Lanes]*sim.Simulator
			var mons [hdl.Lanes]*Monitor
			for lane := range scalars {
				net, err := gen.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				scalars[lane], err = sim.New(net)
				if err != nil {
					t.Fatal(err)
				}
				mons[lane] = New(trace.Analyze(net), Config{})
				mons[lane].Reset()
				mons[lane].SetWindow(true)
			}

			for c := 0; c < cycles; c++ {
				for lane := 0; lane < hdl.Lanes; lane++ {
					ref := scalars[lane].Netlist()
					for ii, in := range inputs {
						v := laneStim(seed, c, lane, ii)
						ls.Plane().Set(in, lane, v)
						ref.SignalByID(in.ID()).Set(v)
					}
				}
				ls.Tick()
				for lane := range scalars {
					scalars[lane].Tick()
				}
			}

			total := 0
			for lane := 0; lane < hdl.Lanes; lane++ {
				got := bank.SnapshotLane(lane)
				want := mons[lane].Snapshot()
				if len(got.Points) != len(want.Points) {
					t.Fatalf("lane %d: %d points vs %d", lane, len(got.Points), len(want.Points))
				}
				for i := range got.Points {
					g, w := got.Points[i], want.Points[i]
					// Point pointers belong to different analyses; compare by id.
					if g.Point.ID != w.Point.ID {
						t.Fatalf("lane %d point %d: id %d vs %d", lane, i, g.Point.ID, w.Point.ID)
					}
					g.Point, w.Point = nil, nil
					if !reflect.DeepEqual(g, w) {
						t.Fatalf("lane %d point %d:\n lane   %+v\n scalar %+v", lane, i, g, w)
					}
					total += g.EventCount
				}
			}
			if total == 0 {
				t.Fatal("no events observed in any lane; stimulus too weak")
			}
		})
	}
}

// TestLaneBankWindowIsolation pins that the monitoring window is per-lane:
// closing one lane's window suppresses its events without touching others.
func TestLaneBankWindowIsolation(t *testing.T) {
	cfg := gen.Config{Seed: 3, Arbiters: 2}
	laneNet, err := gen.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := sim.NewLanes(laneNet)
	if err != nil {
		t.Fatal(err)
	}
	bank := NewLaneBank(trace.Analyze(laneNet), Config{}, ls)
	bank.Reset()
	bank.SetWindowAll(true)
	bank.SetWindow(5, false)

	var inputs []*hdl.Signal
	for _, s := range laneNet.Signals() {
		if s.Kind() == hdl.Input {
			inputs = append(inputs, s)
		}
	}
	for c := 0; c < 32; c++ {
		for lane := 0; lane < hdl.Lanes; lane++ {
			for ii, in := range inputs {
				ls.Plane().Set(in, lane, laneStim(99, c, lane, ii))
			}
		}
		ls.Tick()
	}
	closed := bank.SnapshotLane(5)
	for i := range closed.Points {
		if closed.Points[i].EventCount != 0 {
			t.Fatalf("closed lane recorded %d events at point %d",
				closed.Points[i].EventCount, i)
		}
	}
	open := 0
	for lane := 0; lane < hdl.Lanes; lane++ {
		if lane == 5 {
			continue
		}
		s := bank.SnapshotLane(lane)
		for i := range s.Points {
			open += s.Points[i].EventCount
		}
	}
	if open == 0 {
		t.Fatal("open lanes recorded no events")
	}
}
