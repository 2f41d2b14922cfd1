package fuzz

import (
	"math/rand"
	"testing"

	"sonar/internal/boom"
	"sonar/internal/fuzz/faultinject"
	"sonar/internal/hdl"
	"sonar/internal/isa"
	"sonar/internal/trace"
	"sonar/internal/uarch"
)

// Steady-state Execute on a warm DUT must not touch the heap: every buffer
// it needs (programs, commit logs, snapshot, pulser lists, the Execution
// itself) lives in the two recycled arenas or the shared-prefix snapshot,
// on the path that resumes from the snapshot and on the full path alike. This pins the perf contract the
// campaign engines rely on — regressions here show up directly as GC time in
// campaign throughput. The paper-scale BOOM case covers the sparse monitor's
// dirty-list Reset and incremental snapshot arena over thousands of points.
func TestExecuteSteadyStateAllocFree(t *testing.T) {
	for _, dut := range []struct {
		name string
		soc  func() *uarch.SoC
	}{{"lite", boom.NewLite}, {"paper", boom.New}} {
		t.Run(dut.name, func(t *testing.T) {
			testExecuteAllocFree(t, dut.soc)
		})
	}
}

// testExecuteAllocFree runs TestExecuteSteadyStateAllocFree on one SoC, on
// the path that resumes from the shared-prefix snapshot and on the full
// path.
func testExecuteAllocFree(t *testing.T, soc func() *uarch.SoC) {
	rng := rand.New(rand.NewSource(7))
	tcs := []*Testcase{Generate(rng, false), Generate(rng, false)}
	for _, mode := range []struct {
		name string
		// next returns the testcase and secret of the i-th run.
		next func(i int) (*Testcase, uint64)
	}{
		// One testcase under alternating secrets: every run after the
		// first resumes from the shared-prefix snapshot.
		{"resume", func(i int) (*Testcase, uint64) { return tcs[0], uint64(i % 2) }},
		// Two testcases alternating: every run is a full run that
		// takes a fresh snapshot.
		{"full", func(i int) (*Testcase, uint64) { return tcs[i%2], 0 }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			d := NewDUT(soc())
			// Warm both arenas and the snapshot so every recycled
			// buffer reaches its steady-state capacity.
			for i := 0; i < 4; i++ {
				d.Execute(mode.next(i))
			}
			i, resumes := 0, d.resumes
			allocs := testing.AllocsPerRun(20, func() {
				d.Execute(mode.next(i))
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state Execute allocates %.1f objects/run, want 0", allocs)
			}
			resumed := d.resumes > resumes
			if want := mode.name == "resume"; resumed != want {
				t.Errorf("runs resumed from a snapshot: %v, want %v", resumed, want)
			}
		})
	}
}

// Rebuilding a testcase into a retained Program must reuse the code buffer.
func TestBuildIntoReuseAllocFree(t *testing.T) {
	tc := Generate(rand.New(rand.NewSource(7)), true)
	var prog, att isa.Program
	tc.BuildInto(&prog)
	tc.BuildAttackerInto(&att)
	allocs := testing.AllocsPerRun(20, func() {
		tc.BuildInto(&prog)
		tc.BuildAttackerInto(&att)
	})
	if allocs != 0 {
		t.Errorf("BuildInto/BuildAttackerInto allocate %.1f objects/run, want 0", allocs)
	}
}

// A warm LaneDUT lane pass (reset, SetLane stimulus, activity-driven Tick,
// lane-bank hooks and snapshots of every lane) and a warm Execute must not
// touch the heap.
func TestLaneDUTLanePassAllocFree(t *testing.T) {
	d := netExecFactory(t)().(*LaneDUT)
	rng := rand.New(rand.NewSource(7))
	tcs := make([]*Testcase, d.GroupWidth())
	for i := range tcs {
		tcs[i] = Generate(rng, true)
		d.digs[2*i] = tcDigest(tcs[i], 0)
		d.digs[2*i+1] = tcDigest(tcs[i], 1)
	}
	// Warm the snapshot arenas to their steady-state capacity.
	for i := 0; i < 3; i++ {
		d.pass(hdl.Lanes, 0)
	}
	allocs := testing.AllocsPerRun(10, func() { d.pass(hdl.Lanes, 0) })
	if allocs != 0 {
		t.Errorf("steady-state lane pass allocates %.1f objects/run, want 0", allocs)
	}
	for i := 0; i < 3; i++ {
		d.Execute(tcs[i], 0)
	}
	allocs = testing.AllocsPerRun(10, func() { d.Execute(tcs[0], 0) })
	if allocs != 0 {
		t.Errorf("steady-state Execute allocates %.1f objects/run, want 0", allocs)
	}
}

// A parallel campaign built on SharedAnalysisFactory runs trace.Analyze
// exactly once, no matter how many workers it starts — including the
// replacement workers spawned by fault recovery, which used to re-analyze
// the whole netlist before picking up the retried batch.
func TestReplacementWorkersShareAnalysis(t *testing.T) {
	opt := faultOptions(2)
	sched := faultinject.NewSchedule(
		faultinject.Fault{Worker: 0, Round: 1, Iter: 1, Mode: faultinject.ModePanic},
	)
	opt.FaultHook = sched
	before := trace.AnalyzeCalls()
	mk := SharedAnalysisFactory(boom.NewLite)
	st := RunParallelExec(func() Executor { return mk() }, opt)
	if got := len(st.PerIteration); got != 24 {
		t.Fatalf("campaign executed %d iterations, want 24", got)
	}
	if fired := sched.Fired(); fired != 1 {
		t.Fatalf("fired %d faults, want 1", fired)
	}
	if got := trace.AnalyzeCalls() - before; got != 1 {
		t.Errorf("campaign with a replacement worker ran trace.Analyze %d times, want 1", got)
	}
}
