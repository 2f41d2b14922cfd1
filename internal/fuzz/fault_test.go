package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sonar/internal/fuzz/faultinject"
	"sonar/internal/obs"
)

// faultOptions returns a small sharded campaign configuration suitable for
// fault-injection tests.
func faultOptions(workers int) Options {
	opt := SonarOptions(24)
	opt.Workers = workers
	opt.BatchSize = 4
	return opt
}

// stripFaultEvents drops worker_failed/batch_retried events and re-numbers
// the remainder, yielding the stream a fault-free run would have produced
// if recovery is exact.
func stripFaultEvents(events []obs.Event) []byte {
	var b []byte
	seq := 0
	for _, e := range events {
		if e.Kind == obs.WorkerFailed || e.Kind == obs.BatchRetried {
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

func countFaultEvents(events []obs.Event) (fails, retries int) {
	for _, e := range events {
		switch e.Kind {
		case obs.WorkerFailed:
			fails++
		case obs.BatchRetried:
			retries++
		}
	}
	return fails, retries
}

// TestFaultMatrix is the CI fault-injection matrix (run per-cell under
// -race by the workflow): for every worker count and fault mode, an
// injected transient fault must never deadlock or fail the campaign — the
// batch is retried on a replacement worker, worker_failed/batch_retried
// events are emitted, and the final Stats and (fault-event-stripped) event
// stream match the fault-free run exactly.
func TestFaultMatrix(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, mode := range []faultinject.Mode{faultinject.ModePanic, faultinject.ModeStall} {
			t.Run(fmt.Sprintf("workers=%d/mode=%s", workers, mode), func(t *testing.T) {
				base := faultOptions(workers)
				bopt, bmem := observedOptions(base)
				want := RunParallelExec(liteExec, bopt)

				sched := faultinject.NewSchedule(
					faultinject.Fault{Worker: 0, Round: 1, Iter: 1, Mode: mode},
					faultinject.Fault{Worker: workers - 1, Round: 2, Iter: 0, Mode: mode},
				)
				defer sched.Release() // drain stalled goroutines at test end
				fopt := base
				fopt.FaultHook = sched
				if mode == faultinject.ModeStall {
					// Stalls are only recoverable through the deadline.
					fopt.IterTimeout = 10 * time.Millisecond
				}
				fopt, fmem := observedOptions(fopt)
				got := RunParallelExec(liteExec, fopt)

				statsEqual(t, want, got)
				if fired := sched.Fired(); fired != 2 {
					t.Errorf("fired %d faults, want 2", fired)
				}
				fails, retries := countFaultEvents(fmem.Events())
				if fails != 2 || retries != 2 {
					t.Errorf("got %d worker_failed / %d batch_retried events, want 2/2", fails, retries)
				}
				if !bytes.Equal(stripFaultEvents(fmem.Events()), stripFaultEvents(bmem.Events())) {
					t.Error("faulted campaign's event stream (fault events stripped) differs from fault-free run")
				}
			})
		}
	}
}

// A permanently failing shard (the fault re-arms on every retry) must be
// abandoned after two replacement workers: the campaign completes on
// the remaining shards with the abandoned budget dropped, and the
// abandonment is reported as a worker_failed event.
func TestPermanentFaultAbandonsShard(t *testing.T) {
	opt := faultOptions(2)
	sched := faultinject.NewSchedule(
		faultinject.Fault{Worker: 1, Round: 2, Iter: 0, Mode: faultinject.ModePanic, Repeat: true},
	)
	opt.FaultHook = sched
	opt, mem := observedOptions(opt)
	st := RunParallelExec(liteExec, opt)

	// Shards own 12 iterations each; worker 1 completes round 1 (4 iters)
	// and is abandoned in round 2, dropping its remaining 8.
	if got := len(st.PerIteration); got != 16 {
		t.Fatalf("degraded campaign executed %d iterations, want 16", got)
	}
	if fired := sched.Fired(); fired != 3 {
		t.Errorf("fired %d faults, want 3 (initial attempt + 2 retries)", fired)
	}
	fails, retries := countFaultEvents(mem.Events())
	if fails != 4 { // three failed attempts + the abandonment notice
		t.Errorf("got %d worker_failed events, want 4", fails)
	}
	if retries != 0 {
		t.Errorf("got %d batch_retried events for an abandoned shard, want 0", retries)
	}
	abandoned := false
	wantAttempt := 1
	for _, e := range mem.Events() {
		if e.Kind != obs.WorkerFailed {
			continue
		}
		if strings.Contains(e.Reason, "abandoned") {
			abandoned = true
			if e.Worker != 1 {
				t.Errorf("abandonment reported for worker %d, want 1", e.Worker)
			}
			// The abandonment is a disposition, not an attempt: it carries
			// the distinct Attempt=0 marker so it can never duplicate a
			// failed attempt's number.
			if e.Attempt != 0 {
				t.Errorf("abandonment event has attempt %d, want 0", e.Attempt)
			}
		} else {
			// Real failed attempts are numbered 1..N in order.
			if e.Attempt != wantAttempt {
				t.Errorf("failed attempt numbered %d, want %d", e.Attempt, wantAttempt)
			}
			wantAttempt++
		}
	}
	if !abandoned {
		t.Error("no abandonment worker_failed event emitted")
	}
	// The surviving shard's results must be untouched: its per-iteration
	// series is internally consistent and the campaign ended cleanly.
	last := mem.Events()[len(mem.Events())-1]
	if last.Kind != obs.CampaignEnd {
		t.Errorf("degraded campaign ended with %q, want campaign_end", last.Kind)
	}
	if last.Iterations != 16 {
		t.Errorf("campaign_end reports %d iterations, want 16", last.Iterations)
	}
}

// Fault recovery must compose with checkpoint/resume: a campaign that
// suffers a transient panic, pauses, and resumes still matches the
// fault-free uninterrupted run.
func TestFaultRecoveryComposesWithResume(t *testing.T) {
	base := faultOptions(2)
	full := RunParallelExec(liteExec, base)

	popt := base
	sched := faultinject.NewSchedule(
		faultinject.Fault{Worker: 0, Round: 1, Iter: 2, Mode: faultinject.ModePanic},
	)
	popt.FaultHook = sched
	_, cp := pausedCampaign(t, popt, 2)
	if fired := sched.Fired(); fired != 1 {
		t.Fatalf("fired %d faults before the pause, want 1", fired)
	}
	resumed, err := ResumeExec(liteExec, cp.CampaignOptions(), cp)
	if err != nil {
		t.Fatal(err)
	}
	statsEqual(t, full, resumed)
}

// midRelease wraps a Schedule and releases its stalls when an executor
// reaches round `at`, then holds that executor until the stalled round-1
// attempt has passed the hook of its batch's last iteration, so the late
// result heads for the main loop while later rounds still run.
type midRelease struct {
	*faultinject.Schedule
	at, last int
	released atomic.Bool
	resumed  chan struct{}
}

func (h *midRelease) BeforeIteration(worker, round, iter int) {
	// Once released, only the given-up attempt still runs round 1.
	if round == 1 && iter == h.last && h.released.Load() {
		close(h.resumed)
	}
	if round == h.at && h.released.CompareAndSwap(false, true) {
		h.Release()
		<-h.resumed
	}
	h.Schedule.BeforeIteration(worker, round, iter)
}

// A stalled batch given up at its deadline and then released mid-campaign
// finishes late, on its own shard state and scratch, and its stale result
// is dropped: Stats and the fault-stripped event stream equal the
// fault-free run, and the one recovery is reported once.
func TestStallReleasedMidCampaignIsDropped(t *testing.T) {
	base := SonarOptions(64)
	base.Workers = 2
	base.BatchSize = 4
	bopt, bmem := observedOptions(base)
	want := RunParallelExec(liteExec, bopt)

	hook := &midRelease{
		Schedule: faultinject.NewSchedule(faultinject.Fault{Worker: 0, Round: 1, Iter: 1, Mode: faultinject.ModeStall}),
		at:       3, last: base.BatchSize - 1,
		resumed: make(chan struct{}),
	}
	fopt := base
	fopt.FaultHook = hook
	fopt.IterTimeout = 10 * time.Millisecond
	fopt, fmem := observedOptions(fopt)
	got := RunParallelExec(liteExec, fopt)

	if !hook.released.Load() {
		t.Fatal("the stall was never released mid-campaign")
	}
	statsEqual(t, want, got)
	statsWireEqual(t, want, got)
	fails, retries := countFaultEvents(fmem.Events())
	if fails != 1 || retries != 1 {
		t.Errorf("got %d worker_failed / %d batch_retried events, want 1/1", fails, retries)
	}
	if !bytes.Equal(stripFaultEvents(fmem.Events()), stripFaultEvents(bmem.Events())) {
		t.Error("event stream (fault events stripped) differs from the fault-free run")
	}
}
