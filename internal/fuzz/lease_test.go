package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"sonar/internal/detect"
	"sonar/internal/obs"
)

// execLease executes l on e, round-tripping the lease and its result
// through their JSON wire encodings before and after execution, so every
// lease-coordinator test also exercises exactly what travels over the
// campaign service's HTTP API.
func execLease(t *testing.T, e Executor, shape Shape, lanes int, l *Lease) *LeaseResult {
	t.Helper()
	lb, err := json.Marshal(l)
	if err != nil {
		t.Fatalf("marshal lease: %v", err)
	}
	var wire Lease
	if err := json.Unmarshal(lb, &wire); err != nil {
		t.Fatalf("unmarshal lease: %v", err)
	}
	res, err := ExecuteLease(e, shape, lanes, &wire)
	if err != nil {
		t.Fatalf("ExecuteLease(shard %d, round %d): %v", l.Shard, l.Round, err)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal lease result: %v", err)
	}
	var back LeaseResult
	if err := json.Unmarshal(rb, &back); err != nil {
		t.Fatalf("unmarshal lease result: %v", err)
	}
	return &back
}

// driveLeases runs a lease coordinator to completion in-process: every open
// shard of every round gets its lease executed, on one reused executor, and
// reported back.
func driveLeases(t *testing.T, lc *LeaseCoordinator) {
	t.Helper()
	shape := lc.Shape()
	e := liteExec()
	for !lc.Finished() {
		open := lc.OpenShards()
		if len(open) == 0 {
			t.Fatal("coordinator not finished but no open shards")
		}
		for _, shard := range open {
			l, err := lc.Lease(shard)
			if err != nil {
				t.Fatalf("Lease(%d): %v", shard, err)
			}
			if err := lc.Report(execLease(t, e, shape, 1, l)); err != nil {
				t.Fatalf("Report(shard %d): %v", shard, err)
			}
		}
	}
}

// statsWireEqual compares two campaigns' full serialized statistics,
// findings content included (statsEqual only compares finding counts).
func statsWireEqual(t *testing.T, a, b *Stats) {
	t.Helper()
	aw, err := json.Marshal(a.Wire())
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	bw, err := json.Marshal(b.Wire())
	if err != nil {
		t.Fatalf("marshal stats: %v", err)
	}
	if !bytes.Equal(aw, bw) {
		t.Fatalf("serialized stats differ:\n%s\nvs\n%s", aw, bw)
	}
}

// The distributed determinism contract at the engine layer: a campaign
// driven entirely through shard leases — every lease and result crossing a
// JSON wire boundary — produces a byte-identical event stream and identical
// Stats to the local parallel coordinator for the same (Seed, Workers,
// BatchSize).
func TestLeaseCoordinatorMatchesRunParallel(t *testing.T) {
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			opt := SonarOptions(60)
			opt.Workers = workers
			opt.BatchSize = 8

			localSink := obs.NewMemorySink()
			localOpt := opt
			localOpt.Observer = obs.New(localSink)
			localStats := RunParallelExec(liteExec, localOpt)

			leaseSink := obs.NewMemorySink()
			leaseOpt := opt
			leaseOpt.Observer = obs.New(leaseSink)
			lc := NewLeaseCoordinator(liteFactory(), leaseOpt)
			driveLeases(t, lc)

			if !bytes.Equal(localSink.Bytes(), leaseSink.Bytes()) {
				t.Error("lease-driven event stream differs from local RunParallelExec stream")
			}
			statsEqual(t, localStats, lc.Stats())
			statsWireEqual(t, localStats, lc.Stats())
		})
	}
}

// Re-executing the same lease on one reused executor must return byte-equal
// results — the property that lets the service re-offer a lease lost to
// worker churn without perturbing the campaign, and lets a worker keep one
// executor for every lease of a design.
func TestLeaseReexecutionDeterministic(t *testing.T) {
	opt := SonarOptions(40)
	opt.Workers = 2
	opt.BatchSize = 8
	opt.Observer = obs.New()
	lc := NewLeaseCoordinator(liteFactory(), opt)

	// Advance one round so the lease carries a non-trivial corpus + cursor.
	driveRounds(t, lc, 1)

	l, err := lc.Lease(0)
	if err != nil {
		t.Fatalf("Lease(0): %v", err)
	}
	e := liteExec()
	a := execLease(t, e, lc.Shape(), 1, l)
	b := execLease(t, e, lc.Shape(), 1, l)
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(ab, bb) {
		t.Fatal("re-executing the same lease produced different results")
	}
	// A different lane width is operational: same result bytes.
	c := execLease(t, e, lc.Shape(), 64, l)
	cb, _ := json.Marshal(c)
	if !bytes.Equal(ab, cb) {
		t.Fatal("lease result depends on the executor's lane width")
	}
}

// driveRounds advances the coordinator through n round barriers.
func driveRounds(t *testing.T, lc *LeaseCoordinator, n int) {
	t.Helper()
	target := lc.Round() + n
	e := liteExec()
	for lc.Round() < target && !lc.Finished() {
		for _, shard := range lc.OpenShards() {
			l, err := lc.Lease(shard)
			if err != nil {
				t.Fatalf("Lease(%d): %v", shard, err)
			}
			if err := lc.Report(execLease(t, e, lc.Shape(), 1, l)); err != nil {
				t.Fatalf("Report(shard %d): %v", shard, err)
			}
		}
	}
}

// Stale and malformed reports must be rejected without touching campaign
// state.
func TestLeaseReportValidation(t *testing.T) {
	opt := SonarOptions(40)
	opt.Workers = 2
	opt.BatchSize = 8
	opt.Observer = obs.New()
	lc := NewLeaseCoordinator(liteFactory(), opt)

	l, err := lc.Lease(0)
	if err != nil {
		t.Fatalf("Lease(0): %v", err)
	}
	res := execLease(t, liteExec(), lc.Shape(), 1, l)

	stale := *res
	stale.Round = 99
	if err := lc.Report(&stale); err == nil {
		t.Error("report for a wrong round was accepted")
	}
	short := *res
	short.Outcomes = short.Outcomes[:len(short.Outcomes)-1]
	if err := lc.Report(&short); err == nil {
		t.Error("report with a short batch was accepted")
	}
	garbled := *res
	garbled.Outcomes = append([]OutcomeWire(nil), res.Outcomes...)
	garbled.Outcomes[0].TC = "not a testcase"
	if err := lc.Report(&garbled); err == nil {
		t.Error("report with a garbled testcase was accepted")
	}
	// Point IDs outside the campaign's analysis (the stats fold would index
	// the analysis with them mid-barrier), and values no honest execution
	// produces.
	const farPoint = 1 << 20
	corrupted := []struct {
		name    string
		corrupt func(r *LeaseResult)
	}{
		{"an out-of-range triggered point", func(r *LeaseResult) { r.Outcomes[0].Triggered = []int{farPoint} }},
		{"an out-of-range outcome interval point", func(r *LeaseResult) { r.Outcomes[0].Intvls = []PointIntvl{{Point: farPoint, Intvl: 3}} }},
		{"an out-of-range seed interval point", func(r *LeaseResult) {
			r.Seeds = []SeedWire{{TC: r.Outcomes[0].TC, Intvls: []PointIntvl{{Point: -1, Intvl: 3}}, Dir: 1, Target: -1}}
		}},
		{"an out-of-range seed target point", func(r *LeaseResult) { r.Seeds = []SeedWire{{TC: r.Outcomes[0].TC, Dir: 1, Target: farPoint}} }},
		{"an out-of-range state-diff point", func(r *LeaseResult) {
			r.Outcomes[0].Finding = &detect.Finding{StateDiffs: []detect.StateDiff{{PointID: farPoint}}}
		}},
		{"a negative cycle count", func(r *LeaseResult) { r.Outcomes[0].Cycles = -1 }},
		{"a cursor that did not advance", func(r *LeaseResult) { r.Cursor = l.Cursor }},
	}
	for _, c := range corrupted {
		bad := *res
		bad.Outcomes = append([]OutcomeWire(nil), res.Outcomes...)
		c.corrupt(&bad)
		if err := lc.Report(&bad); err == nil {
			t.Errorf("report with %s was accepted", c.name)
		}
	}
	if lc.Round() != 0 || lc.Position() != 0 || len(lc.OpenShards()) != 2 {
		t.Fatalf("rejected reports moved the campaign: round %d, position %d, open shards %v",
			lc.Round(), lc.Position(), lc.OpenShards())
	}
	if err := lc.Report(res); err != nil {
		t.Fatalf("valid report rejected after invalid ones: %v", err)
	}
	if err := lc.Report(res); err == nil {
		t.Error("duplicate report was accepted")
	}
}

// A shard whose attempts keep failing is abandoned on the third failure (two
// retries): its budget is dropped and the campaign completes degraded, with
// the same worker_failed attempt/disposition events a local campaign emits
// when a shard exhausts its retries.
func TestLeaseAbandonmentDropsBudget(t *testing.T) {
	sink := obs.NewMemorySink()
	opt := SonarOptions(40)
	opt.Workers = 2
	opt.BatchSize = 8
	opt.Observer = obs.New(sink)
	lc := NewLeaseCoordinator(liteFactory(), opt)

	for a := 1; a <= batchRetries+1; a++ {
		if got := lc.Failures(1); got != a-1 {
			t.Fatalf("Failures(1) = %d before attempt %d fails, want %d", got, a, a-1)
		}
		abandoned, err := lc.Fail(1, fmt.Sprintf("lease c1-r1-s1-a%d expired after 30ms", a))
		if err != nil {
			t.Fatalf("Fail(attempt %d): %v", a, err)
		}
		if abandoned != (a == batchRetries+1) {
			t.Fatalf("attempt %d: abandoned = %v", a, abandoned)
		}
	}
	if _, err := lc.Fail(1, "late"); err == nil {
		t.Error("failing an abandoned shard was accepted")
	}
	driveLeases(t, lc)

	if got, want := len(lc.Stats().PerIteration), 20; got != want {
		t.Errorf("degraded campaign executed %d iterations, want %d (shard 1's 20 dropped)", got, want)
	}
	var attempts, dispositions int
	for _, e := range sink.Events() {
		if e.Kind != obs.WorkerFailed {
			continue
		}
		if e.Worker != 1 {
			t.Errorf("worker_failed for worker %d, want 1", e.Worker)
		}
		if e.Attempt == 0 {
			dispositions++
			if !strings.Contains(e.Reason, "shard abandoned after 3 failed attempts; 20 iterations dropped") {
				t.Errorf("unexpected abandonment reason %q", e.Reason)
			}
		} else {
			attempts++
		}
	}
	if attempts != 3 || dispositions != 1 {
		t.Errorf("got %d failed-attempt events and %d dispositions, want 3 and 1", attempts, dispositions)
	}
}

// A lease campaign snapshots into the ordinary Checkpoint shape and resumes
// bit-identically: the concatenation of the streams before and after the
// snapshot equals the uninterrupted campaign's stream, and the final Stats
// match.
func TestLeaseCoordinatorSnapshotResume(t *testing.T) {
	opt := SonarOptions(60)
	opt.Workers = 3
	opt.BatchSize = 8

	unbrokenSink := obs.NewMemorySink()
	unbrokenOpt := opt
	unbrokenOpt.Observer = obs.New(unbrokenSink)
	unbroken := NewLeaseCoordinator(liteFactory(), unbrokenOpt)
	driveLeases(t, unbroken)

	// Interrupted: two rounds, snapshot, resume in a "new process" (fresh
	// coordinator, fresh observer), drive to completion.
	firstSink := obs.NewMemorySink()
	firstOpt := opt
	firstOpt.Observer = obs.New(firstSink)
	first := NewLeaseCoordinator(liteFactory(), firstOpt)
	driveRounds(t, first, 2)
	cp := first.Snapshot(false)

	// The snapshot survives its file round-trip like any checkpoint.
	path := t.TempDir() + "/lease.ckpt"
	if _, err := cp.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}

	secondSink := obs.NewMemorySink()
	secondOpt := loaded.CampaignOptions()
	secondOpt.Observer = obs.New(secondSink)
	second, err := ResumeLeaseCoordinator(liteFactory(), secondOpt, loaded)
	if err != nil {
		t.Fatalf("ResumeLeaseCoordinator: %v", err)
	}
	driveLeases(t, second)

	joined := append(firstSink.Bytes(), secondSink.Bytes()...)
	if !bytes.Equal(joined, unbrokenSink.Bytes()) {
		t.Error("snapshot/resume stream concatenation differs from the uninterrupted stream")
	}
	statsEqual(t, unbroken.Stats(), second.Stats())
	statsWireEqual(t, unbroken.Stats(), second.Stats())
}

// FuzzLeaseReport feeds arbitrary bytes through the path a worker's report
// takes into a campaign: JSON → LeaseResult → Report on a round-1 lite
// coordinator. Report must never panic, and a result it rejects must leave
// the campaign's snapshot byte-equal. The seed corpus (testdata/fuzz) holds
// one real ExecuteLease result and the TestLeaseReportValidation rejects.
func FuzzLeaseReport(f *testing.F) {
	d := liteFactory()
	opt := SonarOptions(8)
	opt.Workers = 2
	opt.BatchSize = 2
	opt.Observer = obs.New()
	f.Fuzz(func(t *testing.T, data []byte) {
		var res LeaseResult
		if json.Unmarshal(data, &res) != nil {
			return
		}
		lc := NewLeaseCoordinator(d, opt)
		before, err := lc.Snapshot(false).Encode()
		if err != nil {
			t.Fatalf("encode snapshot: %v", err)
		}
		if lc.Report(&res) == nil {
			return
		}
		after, err := lc.Snapshot(false).Encode()
		if err != nil {
			t.Fatalf("encode snapshot after a rejected report: %v", err)
		}
		if !bytes.Equal(before, after) {
			t.Fatal("a rejected lease result changed the campaign snapshot")
		}
	})
}
