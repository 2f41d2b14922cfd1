package fuzz

import (
	"bytes"
	"testing"

	"sonar/internal/obs"
)

// A cached worker's source continues exactly where a source replayed from
// the seed to the same cursor would, and a take at any other cursor builds
// a new worker.
func TestSourceCacheTakesOnlyAtCursor(t *testing.T) {
	var c shardCache
	opt := SonarOptions(0)
	opt.Seed = 7
	take := func(cache *shardCache, cursor uint64) *worker {
		return newShardWorker(0, opt, cursor, NewCorpus(), cache)
	}
	w := take(&c, 0)
	for i := 0; i < 100; i++ {
		w.src.Uint64()
	}
	c.put(w)
	if got := take(&c, 50); got == w || got.src.cursor() != 50 {
		t.Fatalf("take at cursor 50 returned the worker at %d (same=%v)", got.src.cursor(), got == w)
	}
	if got := take(&c, 100); got != w {
		t.Fatal("take at the cached cursor did not reuse the cached worker")
	}
	if got := take(&c, 100); got == w {
		t.Fatal("a taken worker was handed out twice")
	}
	replayed := newCountedSource(7, 100)
	for i := 0; i < 100; i++ {
		if a, b := w.src.Uint64(), replayed.Uint64(); a != b {
			t.Fatalf("draw %d after the cursor: cached %d, replayed %d", i, a, b)
		}
	}
	var none *shardCache
	if got := take(none, 3); got.src.cursor() != 3 {
		t.Fatalf("nil cache built a source at %d, want 3", got.src.cursor())
	}
	none.put(w) // a nil cache drops it
}

// Keeping shard RNG sources at their cursors changes no result. In a 2×4
// campaign every lease is executed by one executor that keeps its holding
// (and with it the sources), then again on the same holding, whose source
// has moved past the lease's cursor, and then re-offered in full to a
// second executor holding nothing: the three report bodies are equal. A
// checkpoint after round 3 is resumed on a fresh coordinator while the
// executor keeps its holding, and the joined event stream and Stats equal
// RunParallelExec's. After every round the coordinator and the holding
// each keep every open shard's source at the shard's cursor, so the
// sources are really reused.
func TestShardSourcesReusedAtCursor(t *testing.T) {
	opt := SonarOptions(64)
	opt.Workers = 2
	opt.BatchSize = 4

	localSink := obs.NewMemorySink()
	localOpt := opt
	localOpt.Observer = obs.New(localSink)
	localStats := RunParallelExec(liteExec, localOpt)

	var joined []byte
	sink := obs.NewMemorySink()
	leaseOpt := opt
	leaseOpt.Observer = obs.New(sink)
	lc := NewLeaseCoordinator(liteFactory(), leaseOpt)
	e, other := liteExec(), liteExec()
	var held *HeldCorpus
	shape := lc.Shape()
	for !lc.Finished() {
		if lc.Round() == 3 {
			joined = append(joined, sink.Bytes()...)
			cp := lc.Snapshot(false)
			sink = obs.NewMemorySink()
			resumeOpt := cp.CampaignOptions()
			resumeOpt.Observer = obs.New(sink)
			var err error
			if lc, err = ResumeLeaseCoordinator(liteFactory(), resumeOpt, cp); err != nil {
				t.Fatalf("ResumeLeaseCoordinator: %v", err)
			}
		}
		for _, shard := range lc.OpenShards() {
			l, err := lc.Lease(shard, held.Ref())
			if err != nil {
				t.Fatalf("Lease(%d): %v", shard, err)
			}
			res, next := execHeldLease(t, e, shape, 1, l, held)
			again, _ := execHeldLease(t, e, shape, 1, l, held)
			full, err := lc.Lease(shard, CorpusRef{})
			if err != nil {
				t.Fatalf("Lease(%d): %v", shard, err)
			}
			reoffered := execLease(t, other, shape, 1, full)
			want := LeaseWire.EncodeReport(res)
			if !bytes.Equal(LeaseWire.EncodeReport(again), want) {
				t.Fatalf("round %d shard %d: executing the lease twice gave different reports", lc.Round()+1, shard)
			}
			if !bytes.Equal(LeaseWire.EncodeReport(reoffered), want) {
				t.Fatalf("round %d shard %d: the re-offered lease gave a different report", lc.Round()+1, shard)
			}
			held = next
			if err := lc.Report(res); err != nil {
				t.Fatalf("Report(shard %d): %v", shard, err)
			}
		}
		for _, shard := range lc.OpenShards() {
			seed, cursor := opt.Seed+int64(shard), lc.cursors[shard]
			if w := lc.shards.ws[seed]; w == nil || w.src.cursor() != cursor {
				t.Fatalf("after round %d the coordinator keeps no source for shard %d at cursor %d", lc.Round(), shard, cursor)
			}
			if w := held.shards.ws[seed]; w == nil || w.src.cursor() != cursor {
				t.Fatalf("after round %d the holding keeps no source for shard %d at cursor %d", lc.Round(), shard, cursor)
			}
		}
	}
	joined = append(joined, sink.Bytes()...)
	if !bytes.Equal(joined, localSink.Bytes()) {
		t.Error("lease-driven event stream with kept sources differs from RunParallelExec's")
	}
	statsWireEqual(t, localStats, lc.Stats())
}
