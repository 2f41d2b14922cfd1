package fuzz

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// executionHash folds executions into one order-free campaign hash: each
// execution's own FNV-1a hash over its cycles and every active point's ID,
// stream digest, intervals, event count and contention flags is summed, so
// the result does not depend on which executor ran which batch first.
type executionHash struct {
	sum, n atomic.Uint64
}

func (h *executionHash) add(ex *Execution) {
	e := uint64(1469598103934665603)
	e = fold(e, uint64(ex.Cycles))
	for _, i := range ex.Snap.Active() {
		p := &ex.Snap.Points[i]
		flags := uint64(0)
		if p.VolatileContention {
			flags |= 1
		}
		if p.PersistentCandidate {
			flags |= 2
		}
		for _, v := range []uint64{uint64(p.Point.ID), p.Digest, uint64(p.MinIntvlDistinct), uint64(p.MinIntvlSame), uint64(p.EventCount), flags} {
			e = fold(e, v)
		}
	}
	h.sum.Add(mix64(e))
	h.n.Add(1)
}

func (h *executionHash) String() string {
	return fmt.Sprintf("%d executions, sum %016x", h.n.Load(), h.sum.Load())
}

// hashingExec hashes every execution its GroupExecutor returns.
type hashingExec struct {
	GroupExecutor
	h *executionHash
}

func (x hashingExec) Execute(tc *Testcase, secret uint64) *Execution {
	ex := x.GroupExecutor.Execute(tc, secret)
	x.h.add(ex)
	return ex
}

func (x hashingExec) ExecuteGroup(tcs []*Testcase, secretA, secretB uint64, chunk int, dst []ExecPair) []ExecPair {
	n := len(dst)
	dst = x.GroupExecutor.ExecuteGroup(tcs, secretA, secretB, chunk, dst)
	for _, p := range dst[n:] {
		x.h.add(p.A)
		x.h.add(p.B)
	}
	return dst
}

// netStimulusGolden is the execution hash of the netTestCfg campaign below
// (48 iterations, batch 8), per worker count. Every execution's monitor
// record depends on the inputs its lane was driven with, so the hash moves
// when a lane pass pokes the wrong lanes or nothing at all, and when the
// batch loop hands an executor the wrong testcases — neither of which the
// campaign's Stats, event stream or checkpoint need to show on this design.
var netStimulusGolden = map[int]string{
	1: "96 executions, sum db1cb53406d40906",
	4: "96 executions, sum 07a3c8e185968528",
}

// TestNetlistExecutionsSeeStimulus hashes every execution of a netlist
// campaign on LaneDUT at lane widths 0, 1, 7 and 64 and on the scalar
// reference (scalarNetDUT), at 1 and 4 workers: each hash must equal the
// scalar reference's and the pinned golden.
func TestNetlistExecutionsSeeStimulus(t *testing.T) {
	run := func(f func() Executor, lanes, workers int) string {
		h := new(executionHash)
		opt := SonarOptions(48)
		opt.Workers = workers
		opt.BatchSize = 8
		opt.Lanes = lanes
		RunParallelExec(func() Executor { return hashingExec{f().(GroupExecutor), h} }, opt)
		return h.String()
	}
	lanes, scalar := netExecFactory(t), netScalarFactory(t)
	for _, workers := range []int{1, 4} {
		want := run(scalar, 0, workers)
		if golden := netStimulusGolden[workers]; want != golden {
			t.Errorf("workers=%d: scalar reference executions hash to %q, golden %q", workers, want, golden)
		}
		for _, width := range []int{0, 1, 7, 64} {
			if got := run(lanes, width, workers); got != want {
				t.Errorf("lanes=%d workers=%d: executions hash to %q, scalar reference %q", width, workers, got, want)
			}
		}
	}
}
