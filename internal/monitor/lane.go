// This file holds the lane-indexed monitor: the reqsIntvl instrumentation
// of Monitor, banked per lane for the bit-parallel evaluator
// (sim.LaneSimulator). One LaneBank carries hdl.Lanes independent copies of
// every point's state, so 64 testcases can be monitored through a single
// lane-parallel simulation and demuxed into ordinary per-testcase snapshots.

package monitor

import (
	"math/bits"

	"sonar/internal/hdl"
	"sonar/internal/trace"
)

// LaneHost is the evaluation backend a LaneBank attaches to: it must deliver
// per-word value-change hooks and expose the bit-sliced plane the monitored
// values live in. sim.LaneSimulator implements it.
type LaneHost interface {
	// WatchLanes registers a hook fired on every store that changes s in
	// some lane.
	WatchLanes(s *hdl.Signal, fn hdl.LaneWatchFunc)
	// Plane returns the bit-sliced value plane being evaluated.
	Plane() *hdl.LanePlane
}

// LaneBank instruments a set of contention points across all lanes of a
// lane-parallel simulation. It is the lane analog of Monitor: the same valid
// table and reqsIntvl statistics, with the point states kept independently
// per lane. A valid change folds word-wide — rising lanes, ANDed with the
// conjunction peers' nonzero masks and the window — and only the lanes that
// record gather data. The monitoring window is per-lane, since each lane is
// an independent testcase with its own secret-dependent flight window.
type LaneBank struct {
	cfg   Config
	plane *hdl.LanePlane
	// sets[lane].states[pi] is point pi's instrumentation state in that
	// lane; every lane's set is ordered exactly like the scalar Monitor's,
	// over one shared point list, so lane snapshots are directly comparable
	// with scalar ones.
	sets [hdl.Lanes]pointSet
	// window has bit L set while lane L's window is open.
	window uint64
	valids validTable
}

// NewLaneBank attaches lane instrumentation for every monitorable point in
// the analysis: one lane hook, registered on each watched valid, that finds
// the valid's run in the valid table. The analysis must be over the host's
// netlist.
func NewLaneBank(a *trace.Analysis, cfg Config, host LaneHost) *LaneBank {
	if cfg.SimilarityMask == 0 {
		cfg.SimilarityMask = ^uint64(0)
	}
	b := &LaneBank{cfg: cfg, plane: host.Plane()}
	points := cfg.points(a)
	for lane := range b.sets {
		b.sets[lane] = newPointSet(points)
	}
	b.valids = newValidTable(points)
	hook := func(s *hdl.Signal, _ uint64, old, new []uint64, cycle int64) {
		b.onValid(b.valids.target(s.ID()), s, old, new, cycle)
	}
	for _, id := range b.valids.valids {
		host.WatchLanes(a.Netlist.SignalByID(int(id)), hook)
	}
	return b
}

// onValid folds one store to the target's valid, word-wide: the lanes where
// the valid rose inside the window complete every request on its run whose
// other valids are nonzero in the plane, and each completing lane records
// with its data gathered from the plane.
//
//sonar:alloc-free
func (b *LaneBank) onValid(target int32, s *hdl.Signal, old, new []uint64, cycle int64) {
	rise := nonzero(new) &^ nonzero(old) & b.window
	if rise == 0 {
		return
	}
	net := b.plane.Netlist()
	es := b.valids.run(target)
	for k := range es {
		e := &es[k]
		done := rise
		for _, p := range b.valids.peers[e.peerLo:e.peerHi] {
			done &= b.plane.NonzeroMask(net.SignalByID(int(p)))
		}
		if done == 0 {
			continue
		}
		data := s
		if e.data >= 0 {
			data = net.SignalByID(int(e.data))
		}
		for ; done != 0; done &= done - 1 {
			lane := bits.TrailingZeros64(done)
			b.sets[lane].record(&b.cfg, e.pi, int(e.ri), cycle, b.plane.Get(data, lane))
		}
	}
}

// nonzero returns the lanes holding a nonzero value in a signal's bit
// words: their lane-wise OR.
//
//sonar:alloc-free
func nonzero(words []uint64) uint64 {
	var m uint64
	for _, w := range words {
		m |= w
	}
	return m
}

// NumPoints returns the number of instrumented contention points (per lane).
func (b *LaneBank) NumPoints() int { return len(b.sets[0].states) }

// Statements returns the approximate number of inserted monitoring
// statements; lanes share one harness, so this matches the scalar Monitor.
func (b *LaneBank) Statements() int { return b.valids.statements }

// SetWindow opens or closes one lane's monitoring window.
func (b *LaneBank) SetWindow(lane int, open bool) {
	if open {
		b.window |= 1 << uint(lane)
	} else {
		b.window &^= 1 << uint(lane)
	}
}

// SetWindowAll opens or closes every lane's monitoring window.
func (b *LaneBank) SetWindowAll(open bool) {
	b.window = 0
	if open {
		b.window = ^uint64(0)
	}
}

// WindowOpen reports whether the given lane's window is open.
func (b *LaneBank) WindowOpen(lane int) bool { return b.window>>uint(lane)&1 != 0 }

// Reset shuts every lane's window and clears all collected state, keeping
// hooks attached. Call it between lane-batch executions. Only the states a
// lane recorded into since the last Reset are cleared.
//
//sonar:alloc-free
func (b *LaneBank) Reset() {
	b.window = 0
	for lane := range b.sets {
		b.sets[lane].reset()
	}
}

// SnapshotLane captures one lane's collected state as a freshly allocated
// snapshot, directly comparable with a scalar Monitor.Snapshot of the same
// testcase.
func (b *LaneBank) SnapshotLane(lane int) *Snapshot {
	s := new(Snapshot)
	b.SnapshotLaneInto(lane, s)
	return s
}

// SnapshotLaneInto captures one lane's collected state into s, reusing its
// buffers (see Monitor.SnapshotInto for the aliasing contract).
//
//sonar:alloc-free
func (b *LaneBank) SnapshotLaneInto(lane int, s *Snapshot) {
	b.sets[lane].snapshotInto(s)
}
