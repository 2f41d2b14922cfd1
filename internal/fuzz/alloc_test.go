package fuzz

import (
	"math/rand"
	"testing"

	"sonar/internal/boom"
	"sonar/internal/fuzz/faultinject"
	"sonar/internal/isa"
	"sonar/internal/trace"
)

// Steady-state Execute on a warm DUT must not touch the heap: every buffer
// it needs (programs, commit logs, snapshot, pulser lists, the Execution
// itself) lives in the two recycled arenas. This pins the perf contract the
// campaign engines rely on — regressions here show up directly as GC time in
// campaign throughput.
func TestExecuteSteadyStateAllocFree(t *testing.T) {
	d := NewDUT(boom.NewLite())
	tc := Generate(rand.New(rand.NewSource(7)), false)
	// Warm both arenas under both secrets so every recycled buffer reaches
	// its steady-state capacity.
	for i := 0; i < 4; i++ {
		d.Execute(tc, uint64(i%2))
	}
	secret := uint64(0)
	allocs := testing.AllocsPerRun(20, func() {
		secret ^= 1
		d.Execute(tc, secret)
	})
	if allocs != 0 {
		t.Errorf("steady-state Execute allocates %.1f objects/run, want 0", allocs)
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
