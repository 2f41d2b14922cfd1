package fuzz

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sonar/internal/obs"
)

// observedOptions returns opt with a fresh Observer and its in-memory sink.
func observedOptions(opt Options) (Options, *obs.MemorySink) {
	mem := obs.NewMemorySink()
	opt.Observer = obs.New(mem)
	return opt, mem
}

// The observability half of the determinism contract: a parallel campaign's
// merged event stream is byte-identical across two runs for a fixed
// (Seed, Workers, BatchSize).
func TestParallelEventStreamByteIdentical(t *testing.T) {
	run := func() []byte {
		opt := SonarOptions(40)
		opt.Workers = 4
		opt.BatchSize = 5
		opt, mem := observedOptions(opt)
		RunParallelExec(liteExec, opt)
		return mem.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events emitted")
	}
	if !bytes.Equal(a, b) {
		t.Error("parallel event streams differ between identical runs")
	}
}

// stripBatchMerged drops the round barrier's batch_merged events and
// renumbers the remainder — the projection of a campaign stream onto the
// pinned serial goldens (TestSerialEventStreamMatchesWorkers1), which predate batch_merged.
func stripBatchMerged(events []obs.Event) []byte {
	var b []byte
	seq := 0
	for _, e := range events {
		if e.Kind == obs.BatchMerged {
			continue
		}
		seq++
		e.Seq = seq
		enc, err := json.Marshal(e)
		if err != nil {
			panic(err)
		}
		b = append(append(b, enc...), '\n')
	}
	return b
}

// The determinism contract at full width: a Workers=8 campaign — enough
// rounds for the fold pipeline to run workers ahead of the barrier — yields
// byte-equal event streams and identical Stats across two runs. CI runs
// this under -race, exercising the ahead-of-barrier path for data races.
func TestParallelWorkers8Deterministic(t *testing.T) {
	run := func() (*Stats, []byte) {
		opt := SonarOptions(96)
		opt.Workers = 8
		opt.BatchSize = 3 // 4 rounds per shard: the pipeline stays primed
		opt, mem := observedOptions(opt)
		st := RunParallelExec(liteExec, opt)
		return st, mem.Bytes()
	}
	stA, evA := run()
	stB, evB := run()
	statsEqual(t, stA, stB)
	if len(evA) == 0 {
		t.Fatal("no events emitted")
	}
	if !bytes.Equal(evA, evB) {
		t.Error("Workers=8 event streams differ between identical runs")
	}
}

// Attaching an Observer must not perturb the campaign: identical Stats with
// and without one, with default options and sharded.
func TestObserverDoesNotPerturbCampaign(t *testing.T) {
	opt := SonarOptions(25)
	plain := RunParallelExec(liteExec, opt)
	wopt, _ := observedOptions(opt)
	statsEqual(t, plain, RunParallelExec(liteExec, wopt))

	opt.Workers = 3
	opt.BatchSize = 4
	pplain := RunParallelExec(liteExec, opt)
	popt, _ := observedOptions(opt)
	statsEqual(t, pplain, RunParallelExec(liteExec, popt))
}

// The PerIteration series contract: a campaign records exactly
// Options.Iterations entries, 1-based and contiguous, also at awkward
// worker/batch splits (see Stats.PerIteration).
func TestPerIterationLengthMatchesIterations(t *testing.T) {
	cases := []struct{ iters, workers, batch int }{
		{13, 0, 0},
		{1, 1, 1},
		{13, 4, 3},
		{7, 8, 2},
		{16, 3, 5},
	}
	for _, c := range cases {
		opt := SonarOptions(c.iters)
		opt.Workers = c.workers
		opt.BatchSize = c.batch
		st := RunParallelExec(liteExec, opt)
		if len(st.PerIteration) != c.iters {
			t.Errorf("%+v: len(PerIteration) = %d, want %d", c, len(st.PerIteration), c.iters)
			continue
		}
		for i, it := range st.PerIteration {
			if it.Iteration != i+1 {
				t.Errorf("%+v: entry %d has Iteration %d", c, i, it.Iteration)
				break
			}
		}
	}
}

// The event stream must mirror the campaign's Stats: one IterationDone per
// iteration carrying the same cumulative series, one PointTriggered per
// distinct triggered point, and a CampaignEnd matching the final totals.
func TestEventStreamConsistentWithStats(t *testing.T) {
	for _, workers := range []int{0, 3} {
		opt := SonarOptions(30)
		opt.Workers = workers
		opt.BatchSize = 4
		opt, mem := observedOptions(opt)
		st := RunParallelExec(liteExec, opt)

		var iters, points int
		var end obs.Event
		for _, e := range mem.Events() {
			switch e.Kind {
			case obs.IterationDone:
				got := IterStats{
					Iteration:      e.Iteration,
					NewPoints:      e.NewPoints,
					CumPoints:      e.CumPoints,
					CumTimingDiffs: e.CumTimingDiffs,
				}
				if got != st.PerIteration[iters] {
					t.Fatalf("workers=%d: IterationDone %+v does not match PerIteration %+v",
						workers, got, st.PerIteration[iters])
				}
				iters++
			case obs.PointTriggered:
				if !st.TriggeredPoints[e.Point] {
					t.Errorf("workers=%d: PointTriggered for untriggered point %d", workers, e.Point)
				}
				points++
			case obs.CampaignEnd:
				end = e
			}
		}
		last := st.PerIteration[len(st.PerIteration)-1]
		if iters != opt.Iterations {
			t.Errorf("workers=%d: %d IterationDone events, want %d", workers, iters, opt.Iterations)
		}
		if points != last.CumPoints {
			t.Errorf("workers=%d: %d PointTriggered events, want %d", workers, points, last.CumPoints)
		}
		if end.Kind != obs.CampaignEnd ||
			end.CumPoints != last.CumPoints ||
			end.CumTimingDiffs != last.CumTimingDiffs ||
			end.CorpusSize != st.CorpusSize ||
			end.Cycles != st.ExecutedCycles {
			t.Errorf("workers=%d: CampaignEnd %+v does not match Stats (points=%d diffs=%d corpus=%d cycles=%d)",
				workers, end, last.CumPoints, last.CumTimingDiffs, st.CorpusSize, st.ExecutedCycles)
		}
	}
}

// Campaign metrics must agree with the returned Stats.
func TestCampaignMetricsMatchStats(t *testing.T) {
	opt := SonarOptions(20)
	opt.Workers = 2
	opt.BatchSize = 4
	opt, _ = observedOptions(opt)
	st := RunParallelExec(liteExec, opt)

	series, err := obs.ParseExposition(opt.Observer.Metrics.ExpositionText())
	if err != nil {
		t.Fatal(err)
	}
	last := st.PerIteration[len(st.PerIteration)-1]
	for name, want := range map[string]float64{
		obs.MetricIterations:      float64(opt.Iterations),
		obs.MetricTriggeredPoints: float64(last.CumPoints),
		obs.MetricTimingDiffs:     float64(last.CumTimingDiffs),
		obs.MetricCorpusSize:      float64(st.CorpusSize),
		obs.MetricCycles:          float64(st.ExecutedCycles),
	} {
		if series[name] != want {
			t.Errorf("%s = %v, want %v", name, series[name], want)
		}
	}
	// Both workers must have reported utilization.
	for _, w := range []string{"0", "1"} {
		if series[obs.MetricWorkerIterations+`{worker="`+w+`"}`] != 10 {
			t.Errorf("worker %s iterations = %v, want 10",
				w, series[obs.MetricWorkerIterations+`{worker="`+w+`"}`])
		}
	}
}

// slowMergeSink counts batch_merged events once Emit has returned for
// them, and stalls 100 ms on the first, so a round close still in flight
// shows up as a count that lags the rounds already started.
type slowMergeSink struct{ merged atomic.Int32 }

func (s *slowMergeSink) Emit(e obs.Event) {
	if e.Kind != obs.BatchMerged {
		return
	}
	if s.merged.Load() == 0 {
		time.Sleep(100 * time.Millisecond)
	}
	s.merged.Add(1)
}

func (s *slowMergeSink) Close() error { return nil }

// roundStartHook records, at iteration 0 of every shard batch, the round
// and how many batch_merged events the sink had seen.
type roundStartHook struct {
	sink *slowMergeSink
	mu   sync.Mutex
	seen map[int][]int32 // round -> merged counts at its batches' starts
}

func (h *roundStartHook) BeforeIteration(worker, round, iter int) {
	if iter != 0 {
		return
	}
	n := h.sink.merged.Load()
	h.mu.Lock()
	h.seen[round] = append(h.seen[round], n)
	h.mu.Unlock()
}

// Every round closes — batch_merged emitted — before any iteration of the
// next round runs, however slow the Observer's sinks are.
func TestBatchMergedBeforeNextRound(t *testing.T) {
	sink := &slowMergeSink{}
	hook := &roundStartHook{sink: sink, seen: map[int][]int32{}}
	opt := SonarOptions(24)
	opt.Workers = 2
	opt.BatchSize = 4
	opt.Observer = obs.New(sink)
	opt.FaultHook = hook
	RunParallelExec(liteExec, opt)

	if len(hook.seen) != 3 {
		t.Fatalf("batches started in %d rounds, want 3", len(hook.seen))
	}
	for round := 1; round <= 3; round++ {
		for _, n := range hook.seen[round] {
			if int(n) < round-1 {
				t.Errorf("round %d started with %d batch_merged events emitted, want at least %d", round, n, round-1)
			}
		}
	}
}

// A lease-driven campaign's merge-latency histogram observes real round
// close durations, not zeros.
func TestLeaseMergeLatencyObserved(t *testing.T) {
	opt := SonarOptions(24)
	opt.Workers = 2
	opt.BatchSize = 4
	opt.Observer = obs.New()
	lc := NewLeaseCoordinator(liteFactory(), opt)
	driveLeases(t, lc)

	series, err := obs.ParseExposition(opt.Observer.Metrics.ExpositionText())
	if err != nil {
		t.Fatal(err)
	}
	if got := series[obs.MetricMergeLatency+"_count"]; got != 3 {
		t.Errorf("%s_count = %v, want 3", obs.MetricMergeLatency, got)
	}
	if got := series[obs.MetricMergeLatency+"_sum"]; got <= 0 {
		t.Errorf("%s_sum = %v, want > 0", obs.MetricMergeLatency, got)
	}
}
