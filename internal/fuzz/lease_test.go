package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sonar/internal/detect"
	"sonar/internal/obs"
)

// LeaseWire is the campaign service's lease wire encoding (package fleet),
// installed by leasewire_test.go: Lease round-trips a lease through a grant
// body, EncodeReport and DecodeReport are the report body's codec.
var LeaseWire struct {
	Lease        func(*Lease) (*Lease, error)
	EncodeReport func(*LeaseResult) []byte
	DecodeReport func([]byte) (*LeaseResult, error)
}

// execLease executes l on e, round-tripping the lease and its result
// through their wire encodings before and after execution, so every
// lease-coordinator test also exercises exactly what travels over the
// campaign service's HTTP API.
func execLease(t *testing.T, e Executor, shape Shape, lanes int, l *Lease) *LeaseResult {
	t.Helper()
	res, _ := execHeldLease(t, e, shape, lanes, l, nil)
	return res
}

// execHeldLease is execLease for an executor holding the corpus prefix
// held; it also returns the holding the lease leaves.
func execHeldLease(t *testing.T, e Executor, shape Shape, lanes int, l *Lease, held *HeldCorpus) (*LeaseResult, *HeldCorpus) {
	t.Helper()
	wire, err := LeaseWire.Lease(l)
	if err != nil {
		t.Fatalf("lease wire round trip: %v", err)
	}
	res, next, err := ExecuteLease(e, shape, lanes, wire, held)
	if err != nil {
		t.Fatalf("ExecuteLease(shard %d, round %d): %v", l.Shard, l.Round, err)
	}
	back, err := LeaseWire.DecodeReport(LeaseWire.EncodeReport(res))
	if err != nil {
		t.Fatalf("decode lease result: %v", err)
	}
	return back, next
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
			l, err := lc.Lease(shard, CorpusRef{})
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

// Shipping only the seeds an executor lacks changes nothing: a 2×4 campaign
// driven through Lease/ExecuteLease/Report by one executor that keeps its
// corpus holding, and by one that holds nothing, emits RunParallelExec's
// event stream and Stats.Wire(), and its final snapshot encodes to the
// bytes of RunParallelExec's final checkpoint.
func TestDeltaLeasesMatchRunParallel(t *testing.T) {
	opt := SonarOptions(64)
	opt.Workers = 2
	opt.BatchSize = 4

	localSink := obs.NewMemorySink()
	localOpt := opt
	localOpt.Observer = obs.New(localSink)
	localStats := RunParallelExec(liteExec, localOpt)

	dir := t.TempDir()
	ckptOpt := opt
	ckptOpt.Observer = obs.New(obs.NewMemorySink())
	ckptOpt.Checkpoint = filepath.Join(dir, "local.ckpt")
	RunParallelExec(liteExec, ckptOpt)
	wantCkpt, err := os.ReadFile(ckptOpt.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	for _, hold := range []bool{false, true} {
		t.Run(fmt.Sprintf("hold=%v", hold), func(t *testing.T) {
			sink := obs.NewMemorySink()
			leaseOpt := opt
			leaseOpt.Observer = obs.New(sink)
			lc := NewLeaseCoordinator(liteFactory(), leaseOpt)
			shape := lc.Shape()
			e := liteExec()
			var held *HeldCorpus
			deltas, shipped := 0, 0
			for !lc.Finished() {
				for _, shard := range lc.OpenShards() {
					l, err := lc.Lease(shard, held.Ref())
					if err != nil {
						t.Fatalf("Lease(%d): %v", shard, err)
					}
					if l.CorpusFrom.Len > 0 {
						deltas++
					}
					shipped += len(l.Corpus.Seeds)
					res, next := execHeldLease(t, e, shape, 1, l, held)
					if next.Ref() != (CorpusRef{Len: lc.CorpusLen(), Digest: l.CorpusDigest}) {
						t.Fatalf("holding after round %d is %+v, want the %d-seed merged corpus", l.Round, next.Ref(), lc.CorpusLen())
					}
					if hold {
						held = next
					}
					if err := lc.Report(res); err != nil {
						t.Fatalf("Report(shard %d): %v", shard, err)
					}
				}
			}
			if hold != (deltas > 0) {
				t.Errorf("%d delta leases with hold=%v", deltas, hold)
			}
			if hold && shipped > lc.CorpusLen() {
				t.Errorf("delta leases shipped %d seeds of a %d-seed corpus; each seed should travel once", shipped, lc.CorpusLen())
			}
			if !bytes.Equal(localSink.Bytes(), sink.Bytes()) {
				t.Error("lease-driven event stream differs from local RunParallelExec stream")
			}
			statsWireEqual(t, localStats, lc.Stats())
			path := filepath.Join(t.TempDir(), "lease.ckpt")
			if _, err := lc.Snapshot(true).Save(path); err != nil {
				t.Fatalf("Save: %v", err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantCkpt) {
				t.Error("lease-driven final snapshot differs from RunParallelExec's final checkpoint")
			}
		})
	}
}

// leaseAfterRounds opens a 2×8 lite campaign with seed, drives it through
// rounds round barriers with full leases, and returns it with a holding of
// its merged corpus.
func leaseAfterRounds(t *testing.T, seed int64, rounds int) (*LeaseCoordinator, *HeldCorpus) {
	t.Helper()
	opt := SonarOptions(64)
	opt.Seed = seed
	opt.Workers = 2
	opt.BatchSize = 8
	opt.Observer = obs.New()
	lc := NewLeaseCoordinator(liteFactory(), opt)
	driveRounds(t, lc, rounds)
	l, err := lc.Lease(0, CorpusRef{})
	if err != nil {
		t.Fatalf("Lease(0): %v", err)
	}
	_, held := execHeldLease(t, liteExec(), lc.Shape(), 1, l, nil)
	if held.Ref().Len == 0 {
		t.Fatalf("campaign retained no seeds in %d rounds", rounds)
	}
	return lc, held
}

// A corpus ref that does not name a prefix of the merged corpus — out of
// range, off the digest chain, or another campaign's — gets a lease carrying
// the whole corpus, never a panic, and the lease executes with no holding.
func TestLeaseHostileCorpusRefs(t *testing.T) {
	lc, held := leaseAfterRounds(t, 1, 2)
	_, other := leaseAfterRounds(t, 2, 2)
	n := lc.CorpusLen()
	good := held.Ref()
	foreign := other.Ref()
	if foreign.Len > n {
		foreign = CorpusRef{Len: n, Digest: other.ref.Digest}
	}
	cases := []struct {
		name string
		ref  CorpusRef
	}{
		{"negative length", CorpusRef{Len: -1, Digest: good.Digest}},
		{"most negative length", CorpusRef{Len: -1 << 63, Digest: ""}},
		{"length past the corpus", CorpusRef{Len: n + 1, Digest: good.Digest}},
		{"huge length", CorpusRef{Len: 1 << 62, Digest: good.Digest}},
		{"wrong digest", CorpusRef{Len: n, Digest: strings.Repeat("0", 64)}},
		{"empty digest", CorpusRef{Len: n}},
		{"another campaign's ref", foreign},
	}
	for _, c := range cases {
		l, err := lc.Lease(0, c.ref)
		if err != nil {
			t.Fatalf("%s: Lease: %v", c.name, err)
		}
		if l.CorpusFrom != (CorpusRef{}) || len(l.Corpus.Seeds) != n {
			t.Errorf("%s: lease from %+v carries %d of %d seeds, want the whole corpus", c.name, l.CorpusFrom, len(l.Corpus.Seeds), n)
		}
		if _, next := execHeldLease(t, liteExec(), lc.Shape(), 1, l, nil); next.Ref() != good {
			t.Errorf("%s: holding %+v after a full lease, want %+v", c.name, next.Ref(), good)
		}
	}
	l, err := lc.Lease(0, good)
	if err != nil {
		t.Fatalf("Lease(held): %v", err)
	}
	if l.CorpusFrom != good || len(l.Corpus.Seeds) != 0 {
		t.Errorf("lease for a current holding starts at %+v and carries %d seeds, want %+v and none", l.CorpusFrom, len(l.Corpus.Seeds), good)
	}
}

// ExecuteLease installs a delta lease only on top of the prefix it names: a
// lease whose base is not what the executor holds, or whose seeds do not
// hash to its corpus digest, is rejected. On the right holding it returns
// the full lease's result bytes, however often it runs, and leaves the
// holding it extended untouched.
func TestExecuteLeaseRejectsForeignBase(t *testing.T) {
	lc, held := leaseAfterRounds(t, 1, 1)
	_, other := leaseAfterRounds(t, 2, 1)
	driveRounds(t, lc, 1)
	delta, err := lc.Lease(1, held.Ref())
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	if delta.CorpusFrom != held.Ref() {
		t.Fatalf("lease for holding %+v starts at %+v", held.Ref(), delta.CorpusFrom)
	}
	full, err := lc.Lease(1, CorpusRef{})
	if err != nil {
		t.Fatalf("Lease: %v", err)
	}
	shape, e := lc.Shape(), liteExec()
	want, wantNext := execHeldLease(t, e, shape, 1, full, nil)
	wantBytes, _ := json.Marshal(want)

	for _, h := range []*HeldCorpus{nil, other} {
		if _, _, err := ExecuteLease(e, shape, 1, delta, h); err == nil {
			t.Errorf("delta lease from %+v ran on holding %+v", delta.CorpusFrom, h.Ref())
		}
	}
	tampered := *full
	tampered.Corpus.Seeds = full.Corpus.Seeds[1:]
	if _, _, err := ExecuteLease(e, shape, 1, &tampered, nil); err == nil {
		t.Error("lease whose seeds miss its corpus digest ran")
	}

	// Executions on one holding may run at once (the race detector checks
	// that neither appends to its seed list, which has spare capacity here).
	before := held.Ref()
	held.seeds = append(make([]*Seed, 0, 2*len(held.seeds)+8), held.seeds...)
	got := make([][]byte, 2)
	refs := make([]CorpusRef, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, next, err := ExecuteLease(liteExec(), shape, 1, delta, held)
			if errs[i] = err; err == nil {
				got[i], errs[i] = json.Marshal(res)
				refs[i] = next.Ref()
			}
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], wantBytes) {
			t.Errorf("run %d: delta lease result differs from the full lease's", i)
		}
		if refs[i] != wantNext.Ref() {
			t.Errorf("run %d: holding %+v, want %+v", i, refs[i], wantNext.Ref())
		}
	}
	if held.Ref() != before || len(held.seeds) != before.Len {
		t.Errorf("executing on a holding changed it: %+v with %d seeds, was %+v", held.Ref(), len(held.seeds), before)
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

	l, err := lc.Lease(0, CorpusRef{})
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

// The coordinator's replay of a report rebuilds exactly what the executing
// worker reached: for every lease of a 2×4 campaign, on a behavioural
// executor and on a LaneDUT (a group width above the batch size), the
// replayed testcases, retained seeds, and post-batch cursor equal
// ExecuteLease's own worker's.
func TestLeaseReplayMatchesWorker(t *testing.T) {
	for _, c := range []struct {
		name string
		exec func() Executor
	}{
		{"behavioural", liteExec},
		{"lanes", netExecFactory(t)},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := SonarOptions(40)
			opt.Workers = 2
			opt.BatchSize = 4
			opt.Observer = obs.New()
			e := c.exec()
			lc := NewLeaseCoordinator(c.exec(), opt)
			if lc.width != groupWidth(e) {
				t.Fatalf("coordinator replays at group width %d, executor runs %d", lc.width, groupWidth(e))
			}
			seeds := 0
			for !lc.Finished() {
				for _, shard := range lc.OpenShards() {
					l, err := lc.Lease(shard, CorpusRef{})
					if err != nil {
						t.Fatalf("Lease(%d): %v", shard, err)
					}
					w, ran, _, err := executeLease(e, lc.Shape(), 1, l, nil)
					if err != nil {
						t.Fatalf("executeLease: %v", err)
					}
					res := execLease(t, e, lc.Shape(), 1, l)
					rep := lc.replay(shard, res.Outcomes)
					outs := rep.outs
					at := fmt.Sprintf("round %d shard %d", l.Round, shard)
					if got, want := rep.cursor, w.src.cursor(); got != want {
						t.Errorf("%s: replayed cursor %d, worker reached %d", at, got, want)
					}
					for i := range ran {
						if got, want := outs[i].tc.Marshal(), ran[i].tc.Marshal(); got != want {
							t.Errorf("%s: replayed testcase %d differs:\n%s\nvs\n%s", at, i, got, want)
						}
					}
					wantSeeds := w.takeNewSeeds()
					if len(rep.seeds) != len(wantSeeds) {
						t.Fatalf("%s: replay retained %d seeds, worker %d", at, len(rep.seeds), len(wantSeeds))
					}
					for i := range wantSeeds {
						got, _ := json.Marshal(wireSeed(rep.seeds[i]))
						want, _ := json.Marshal(wireSeed(wantSeeds[i]))
						if !bytes.Equal(got, want) {
							t.Errorf("%s: replayed seed %d differs:\n%s\nvs\n%s", at, i, got, want)
						}
					}
					seeds += len(wantSeeds)
					if err := lc.Report(res); err != nil {
						t.Fatalf("%s: Report: %v", at, err)
					}
				}
			}
			if seeds == 0 {
				t.Error("no lease retained a seed, so the replayed retention went unchecked")
			}
		})
	}
}

// driveRounds advances the coordinator through n round barriers.
func driveRounds(t *testing.T, lc *LeaseCoordinator, n int) {
	t.Helper()
	target := lc.Round() + n
	e := liteExec()
	for lc.Round() < target && !lc.Finished() {
		for _, shard := range lc.OpenShards() {
			l, err := lc.Lease(shard, CorpusRef{})
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

	l, err := lc.Lease(0, CorpusRef{})
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
	// Point IDs outside the campaign's analysis (the stats fold would index
	// the analysis with them mid-barrier), and values no honest execution
	// produces.
	const farPoint = 1 << 20
	corrupted := []struct {
		name    string
		corrupt func(r *LeaseResult)
	}{
		{"an out-of-range triggered point", func(r *LeaseResult) { r.Outcomes[0].Triggered = []int{farPoint} }},
		{"an out-of-range outcome interval point", func(r *LeaseResult) { r.Outcomes[0].Intvls = []PointIntvl{{farPoint, 3}} }},
		{"outcome interval points out of order", func(r *LeaseResult) { r.Outcomes[0].Intvls = []PointIntvl{{2, 3}, {1, 3}} }},
		{"a repeated outcome interval point", func(r *LeaseResult) { r.Outcomes[0].Intvls = []PointIntvl{{1, 3}, {1, 2}} }},
		{"an out-of-range state-diff point", func(r *LeaseResult) {
			r.Outcomes[0].Finding = &detect.Finding{StateDiffs: []detect.StateDiff{{PointID: farPoint, Reason: detect.ReasonStream}}}
		}},
		{"a state diff without reason bits", func(r *LeaseResult) {
			r.Outcomes[0].Finding = &detect.Finding{StateDiffs: []detect.StateDiff{{PointID: 0}}}
		}},
		{"a state diff with an unknown reason bit", func(r *LeaseResult) {
			r.Outcomes[0].Finding = &detect.Finding{StateDiffs: []detect.StateDiff{{PointID: 0, Reason: detect.ReasonStream | 1<<5}}}
		}},
		{"a negative event count", func(r *LeaseResult) {
			r.Outcomes[0].Finding = &detect.Finding{StateDiffs: []detect.StateDiff{{PointID: 0, Reason: detect.ReasonCount, CountA: -1, CountB: 2}}}
		}},
		{"a negative cycle count", func(r *LeaseResult) { r.Outcomes[0].Cycles = -1 }},
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

// Each FuzzLeaseReport seed reaches the check it is named after: the corpus
// holds one real ExecuteLease result, which Report accepts and a fresh
// ExecuteLease reproduces byte for byte, and one reject per Report check. A
// change to the report shape that made a seed fail an earlier check would
// otherwise silently stop it covering its own.
func TestLeaseReportCorpusVerdicts(t *testing.T) {
	want := map[string]string{
		"valid":                               "",
		"stale-round":                         "for round 99",
		"short-batch":                         "carries 1 outcomes",
		"negative-cycles":                     "negative cycle count",
		"triggered-point-out-of-range":        "outcome 0: point 1048576 out of range",
		"outcome-interval-point-out-of-range": "outcome 0: interval point 1048576 out of range",
		"state-diff-point-out-of-range":       "state-diff point 1048576 out of range",
		"state-diff-zero-reason":              "invalid reason bits 0",
		"state-diff-unknown-reason":           "invalid reason bits 0x10",
		"state-diff-negative-event-count":     "negative event count -1",
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzLeaseReport")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("corpus holds %d seeds, want %d", len(entries), len(want))
	}
	d := liteFactory()
	opt := SonarOptions(8)
	opt.Workers = 2
	opt.BatchSize = 2
	opt.Observer = obs.New()
	for _, e := range entries {
		phrase, ok := want[e.Name()]
		if !ok {
			t.Errorf("seed %s has no expected verdict", e.Name())
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(src)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		res, err := LeaseWire.DecodeReport([]byte(data))
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		lc := NewLeaseCoordinator(d, opt)
		if e.Name() == "valid" {
			l, err := lc.Lease(res.Shard, CorpusRef{})
			if err != nil {
				t.Fatalf("Lease: %v", err)
			}
			if string(LeaseWire.EncodeReport(execLease(t, d, lc.Shape(), 1, l))) != data {
				t.Error("seed valid is not the bytes of a fresh ExecuteLease result")
			}
		}
		err = lc.Report(res)
		switch {
		case phrase == "" && err != nil:
			t.Errorf("seed %s rejected: %v", e.Name(), err)
		case phrase != "" && (err == nil || !strings.Contains(err.Error(), phrase)):
			t.Errorf("seed %s: Report error %v, want one containing %q", e.Name(), err, phrase)
		}
	}
}

// FuzzLeaseReport feeds arbitrary bytes through the path a worker's report
// takes into a campaign: report body → LeaseResult → Report on a round-1
// lite coordinator. A body that decodes must re-encode to the same bytes,
// Report must never panic, and a result it rejects must leave the
// campaign's snapshot byte-equal. The seed corpus (testdata/fuzz) holds one
// real ExecuteLease result and the TestLeaseReportValidation rejects.
func FuzzLeaseReport(f *testing.F) {
	d := liteFactory()
	opt := SonarOptions(8)
	opt.Workers = 2
	opt.BatchSize = 2
	opt.Observer = obs.New()
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := LeaseWire.DecodeReport(data)
		if err != nil {
			return
		}
		if !bytes.Equal(LeaseWire.EncodeReport(res), data) {
			t.Fatal("a decoded report re-encodes to different bytes")
		}
		lc := NewLeaseCoordinator(d, opt)
		before, err := lc.Snapshot(false).Encode()
		if err != nil {
			t.Fatalf("encode snapshot: %v", err)
		}
		if lc.Report(res) == nil {
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
