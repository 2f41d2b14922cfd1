package fuzz

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"sonar/internal/detect"
	"sonar/internal/uarch"
)

func liteFactory() *DUT {
	return NewDUT(uarch.NewSoC(uarch.BoomConfig(), 1, nil, nil))
}

// liteExec is liteFactory in the Executor-factory form the campaign engine
// and lease execution take.
func liteExec() Executor { return liteFactory() }

// statsEqual compares everything a campaign reports except the finding
// pointers themselves.
func statsEqual(t *testing.T, a, b *Stats) {
	t.Helper()
	if len(a.PerIteration) != len(b.PerIteration) {
		t.Fatalf("iteration counts differ: %d vs %d", len(a.PerIteration), len(b.PerIteration))
	}
	for i := range a.PerIteration {
		if a.PerIteration[i] != b.PerIteration[i] {
			t.Fatalf("iteration %d differs: %+v vs %+v", i, a.PerIteration[i], b.PerIteration[i])
		}
	}
	if !reflect.DeepEqual(a.TriggeredPoints, b.TriggeredPoints) {
		t.Fatal("TriggeredPoints sets differ")
	}
	if a.CorpusSize != b.CorpusSize {
		t.Fatalf("CorpusSize %d vs %d", a.CorpusSize, b.CorpusSize)
	}
	if a.ExecutedCycles != b.ExecutedCycles {
		t.Fatalf("ExecutedCycles %d vs %d", a.ExecutedCycles, b.ExecutedCycles)
	}
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("finding counts differ: %d vs %d", len(a.Findings), len(b.Findings))
	}
}

// A fixed worker count must be reproducible across runs.
func TestParallelReproducibleWorkers4(t *testing.T) {
	opt := SonarOptions(40)
	opt.Workers = 4
	opt.BatchSize = 5
	a := RunParallelExec(liteExec, opt)
	b := RunParallelExec(liteExec, opt)
	statsEqual(t, a, b)
	if len(a.PerIteration) != 40 {
		t.Fatalf("parallel campaign recorded %d iterations, want 40", len(a.PerIteration))
	}
	last := 0
	for _, it := range a.PerIteration {
		if it.CumPoints < last {
			t.Fatal("cumulative triggered points decreased")
		}
		last = it.CumPoints
	}
	if last == 0 {
		t.Error("parallel campaign triggered nothing")
	}
}

// The worker clamp: more workers than iterations must not hang or drop
// iterations.
func TestParallelMoreWorkersThanIterations(t *testing.T) {
	opt := SonarOptions(3)
	opt.Workers = 8
	st := RunParallelExec(liteExec, opt)
	if len(st.PerIteration) != 3 {
		t.Fatalf("iterations = %d, want 3", len(st.PerIteration))
	}
}

// The random baseline retains nothing, also through the parallel engine.
func TestParallelRandomBaselineRetainsNothing(t *testing.T) {
	opt := RandomOptions(8)
	opt.Workers = 2
	if st := RunParallelExec(liteExec, opt); st.CorpusSize != 0 {
		t.Errorf("random baseline corpus size = %d, want 0", st.CorpusSize)
	}
}

// Dual-core campaigns must survive the parallel engine (exercised under
// -race in CI).
func TestParallelDualCore(t *testing.T) {
	mk := func() Executor { return NewDUT(uarch.NewSoC(uarch.BoomConfig(), 2, nil, nil)) }
	opt := SonarOptions(8)
	opt.DualCore = true
	opt.Workers = 2
	opt.BatchSize = 2
	st := RunParallelExec(mk, opt)
	if len(st.PerIteration) != 8 {
		t.Fatal("dual-core parallel campaign did not complete")
	}
	if st.PerIteration[7].CumPoints == 0 {
		t.Error("dual-core parallel campaign triggered nothing")
	}
}

// Regression for the dual-core detection fallback: a testcase without an
// attacker program must never have its (empty) attacker logs analyzed, even
// when the executions carry leftover attacker-log contents that would
// otherwise read as a timing difference.
func TestAnalyzeExecutionsSkipsEmptyAttacker(t *testing.T) {
	victim := []uarch.CommitRecord{{Idx: 0, Cycle: 0}, {Idx: 1, Cycle: 5}, {Idx: 2, Cycle: 10}}
	attA := []uarch.CommitRecord{{Idx: 0, Cycle: 0}, {Idx: 1, Cycle: 5}, {Idx: 2, Cycle: 10}}
	attB := []uarch.CommitRecord{{Idx: 0, Cycle: 0}, {Idx: 1, Cycle: 5}, {Idx: 2, Cycle: 30}}
	exA := &Execution{Log: victim, AttackerLog: attA}
	exB := &Execution{Log: victim, AttackerLog: attB}

	if f := new(detect.Finding); analyzeExecutions(f, &Testcase{}, exA, exB) {
		t.Errorf("attacker-less testcase produced a finding from attacker logs: %v", f)
	}
	rng := rand.New(rand.NewSource(1))
	withAttacker := Generate(rng, true)
	if !analyzeExecutions(new(detect.Finding), withAttacker, exA, exB) {
		t.Error("attacker-carrying testcase ignored a real attacker-side timing difference")
	}
}

// A dual-core campaign whose testcases carry no attacker (DualCore unset on
// a two-core SoC: the second core is halted) must report no findings beyond
// what the victim logs justify — i.e. the empty attacker logs contribute
// nothing.
func TestDualCoreCampaignWithoutAttackersUsesVictimLogsOnly(t *testing.T) {
	dual := func() Executor { return NewDUT(uarch.NewSoC(uarch.BoomConfig(), 2, nil, nil)) }
	opt := SonarOptions(6) // DualCore false: every testcase is attacker-less
	st := RunParallelExec(dual, opt)
	single := RunParallelExec(liteExec, opt)
	if got, want := st.PerIteration[5].CumTimingDiffs, single.PerIteration[5].CumTimingDiffs; got != want {
		t.Errorf("attacker-less dual-core campaign found %d timing diffs, single-core found %d", got, want)
	}
}

// Fresh testcases must enter the corpus with both mutation directions
// represented; a fixed +1 would permanently bias directed mutation toward
// chain growth (§6.2.1's adaptive strategy explores both).
func TestFreshSeedDirectionsUnbiased(t *testing.T) {
	d := liteFactory()
	dirs := map[int]int{}
	for seed := int64(0); seed < 16; seed++ {
		opt := SonarOptions(1)
		opt.Seed = seed
		w := newShardWorker(0, opt, 0, NewCorpus(), nil)
		w.runBatch(d, w.slotsFor(1), 1, 1) // the first iteration always generates a fresh testcase
		for _, s := range w.corpus.seeds {
			dirs[s.Dir]++
		}
	}
	if dirs[+1] == 0 || dirs[-1] == 0 {
		t.Errorf("initial seed directions biased: %v", dirs)
	}
}

// The executor pool: a fault-free campaign with more shards than
// GOMAXPROCS builds only min(Workers, GOMAXPROCS) executors, and running
// every shard on whichever pooled executor is free changes nothing — its
// Stats equal a lease-driven run of the same campaign that executes every
// batch on a fresh executor.
func TestParallelPoolBuildsAtMostGOMAXPROCSExecutors(t *testing.T) {
	opt := SonarOptions(64)
	opt.Workers = 8
	opt.BatchSize = 4
	var built atomic.Int32
	st := RunParallelExec(func() Executor { built.Add(1); return liteExec() }, opt)
	if got, limit := int(built.Load()), min(opt.Workers, runtime.GOMAXPROCS(0)); got > limit {
		t.Errorf("campaign built %d executors, want at most min(%d, GOMAXPROCS) = %d", got, opt.Workers, limit)
	}

	lc := NewLeaseCoordinator(liteFactory(), opt)
	for !lc.Finished() {
		for _, shard := range lc.OpenShards() {
			l, err := lc.Lease(shard, CorpusRef{})
			if err != nil {
				t.Fatalf("Lease(%d): %v", shard, err)
			}
			if err := lc.Report(execLease(t, liteExec(), lc.Shape(), 1, l)); err != nil {
				t.Fatalf("Report(shard %d): %v", shard, err)
			}
		}
	}
	statsWireEqual(t, lc.Stats(), st)
}
