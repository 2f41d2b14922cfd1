package fuzz

import (
	"fmt"
	"sync"
	"time"
)

// defaultBatchSize is the per-worker iteration count between two corpus
// merges when Options.BatchSize is zero. Executions dominate the cost of an
// iteration, so a few dozen iterations amortize the merge barrier while
// keeping retention/selection feedback near-global.
const defaultBatchSize = 32

// Fault-tolerance defaults (see the Options fields of the same names).
const (
	defaultMaxRetries   = 2
	defaultRetryBackoff = 50 * time.Millisecond
	// maxBackoffShift caps the exponential retry backoff at base<<4 = 16x.
	maxBackoffShift = 4
)

// abandonAttempt is the Attempt value of the worker_failed event that
// reports a shard abandonment. Failed batch attempts are numbered 1..N; the
// abandonment is a disposition, not an attempt, and carries 0 so it can
// never collide with a real attempt number (see obs.WorkerFailed).
const abandonAttempt = 0

// pipelineDepth is the number of recycled round records (roundFold) — and
// therefore how many merge rounds may be in flight between the barrier and
// the fold goroutine. Two means classic double buffering:
// workers execute round k+1 while the folder drains round k.
const pipelineDepth = 2

// coordinator is the in-process driver of a LeaseCoordinator — the local
// parallel engine. The LeaseCoordinator owns the campaign state and the
// round barrier; the coordinator keeps only what is local to a process:
//
//   - persistent shard workers, each with a private executor, RNG stream,
//     and copy-on-write view of the merged corpus, reported to the barrier
//     directly (outcomes and seeds, never their wire encoding);
//   - the panic/stall supervisor that retries a failed batch on a
//     replacement worker (superviseShard/attemptBatch);
//   - the fold pipeline: closeBarrier runs on the main goroutine, and
//     foldRound — the stats fold and every event emission — on a dedicated
//     goroutine, one round behind the workers (docs/PERFORMANCE.md);
//   - periodic checkpoint writes and the MaxRounds pause.
//
// The fold order is the barrier's canonical order, so Stats, PerIteration,
// and the event stream are byte-identical per (Seed, Workers, BatchSize);
// only the wall-clock schedule differs from the campaign service's.
type coordinator struct {
	lc      *LeaseCoordinator
	newExec func() Executor
	ws      []*worker // nil entry = abandoned shard, or a drained one nothing was built for
	// lastSaved and nextCkpt drive periodic checkpointing: a checkpoint is
	// cut at the first merge barrier at or past every nextCkpt iterations.
	lastSaved int
	nextCkpt  int

	// Fold pipeline (see the type comment). foldCh carries closed rounds to
	// the fold goroutine; foldDone returns their records for reuse.
	// inFlight counts rounds handed off but not yet reclaimed, free holds
	// reclaimed records, and records counts total allocations (capped at
	// pipelineDepth). folderExit closes when the fold goroutine drains out.
	foldCh     chan *roundFold
	foldDone   chan *roundFold
	folderExit chan struct{}
	inFlight   int
	free       []*roundFold
	records    int
}

// normalizeParallel returns the effective (post-clamp) worker count and
// batch size of a parallel campaign — the values CampaignStart reports and
// a checkpoint's shape stores.
func normalizeParallel(opt Options) (workers, batch int) {
	workers = opt.Workers
	if workers < 1 {
		workers = 1
	}
	if opt.Iterations > 0 && workers > opt.Iterations {
		workers = opt.Iterations
	}
	batch = opt.BatchSize
	if batch <= 0 {
		batch = defaultBatchSize
	}
	return workers, batch
}

// RunParallelExec executes a sharded fuzzing campaign: Options.Workers
// workers, each owning a private executor built by newExec (a behavioral
// *DUT or a netlist LaneDUT), execute batches of testcases against private
// corpus views; after every batch round the LeaseCoordinator's barrier
// merges retained seeds into the global corpus in canonical worker order and
// every worker restarts from the merged view, while a fold goroutine drains
// the round's statistics and events off the workers' critical path.
//
// Determinism contract: worker w draws from rand.NewSource(opt.Seed+w), the
// batch schedule is static, and merges happen in worker order, so a
// campaign is reproducible for a fixed (Seed, Workers, BatchSize) — and
// Workers <= 1 reproduces Run's serial campaign exactly. The contract
// extends to observability: opt.Observer's events are emitted only by the
// fold goroutine, one round at a time in fold order, so the event stream
// (and Stats.PerIteration, which it mirrors) is byte-identical across runs
// and to the campaign service's; worker goroutines update atomic metrics
// only.
//
// Durability (docs/CAMPAIGNS.md): with Options.Checkpoint set, the engine
// writes an atomic campaign snapshot at merge barriers every CheckpointEvery
// iterations (draining the fold pipeline first, so the snapshot is exact);
// ResumeExec restores one into a campaign whose remaining iterations — Stats
// and event stream included — are identical to the uninterrupted run.
// Worker panics and (with IterTimeout) wedged iterations are recovered by
// retrying the batch on a replacement worker; a shard that keeps failing is
// abandoned and the campaign completes on the remaining workers.
func RunParallelExec(newExec func() Executor, opt Options) *Stats {
	workers, _ := normalizeParallel(opt)
	ws := newShardWorkers(newExec, opt, make([]uint64, workers), nil)
	return newCoordinator(NewLeaseCoordinator(ws[0].d, opt), newExec, ws, -1).run()
}

// ResumeExec continues a checkpointed campaign. opt must describe the same
// campaign shape (Seed, Workers, BatchSize, iteration budget, strategy
// switches) as the checkpoint; operational fields (Checkpoint,
// CheckpointEvery, MaxRounds, IterTimeout, retry policy, Observer,
// FaultHook, Lanes) are free to differ — the usual way to build opt is
// cp.CampaignOptions() plus operational overrides.
//
// The resumed campaign is bit-identical to the uninterrupted run: the final
// Stats match, and the event stream emitted after ResumeExec byte-continues
// the stream the interrupted run emitted before the checkpoint (sequence
// numbers included; no campaign_start is re-emitted).
func ResumeExec(newExec func() Executor, opt Options, cp *Checkpoint) (*Stats, error) {
	lc, err := restoreLeaseCoordinator(opt, cp)
	if err != nil {
		return nil, err
	}
	ws := newShardWorkers(newExec, opt, lc.cursors, lc.rem)
	var d Executor // any live worker's: point IDs agree across executors
	for _, w := range ws {
		if w != nil {
			d = w.d
			break
		}
	}
	lc.resume(d, cp)
	if cp.Complete {
		return lc.acc.st, nil
	}
	return newCoordinator(lc, newExec, ws, cp.Done).run(), nil
}

// newShardWorkers builds one worker per shard, with its RNG replayed to the
// shard's cursor, skipping shards with no remaining budget when rem is
// given. Elaboration and analysis are independent and deterministic, so the
// executors are built concurrently.
func newShardWorkers(newExec func() Executor, opt Options, cursors []uint64, rem []int) []*worker {
	ws := make([]*worker, len(cursors))
	var wg sync.WaitGroup
	for i := range ws {
		if rem != nil && rem[i] == 0 {
			continue // drained or abandoned shard: no executor needed
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i] = newShardWorker(i, newExec(), opt, cursors[i])
		}(i)
	}
	wg.Wait()
	return ws
}

// newCoordinator wraps a LeaseCoordinator in the local driver. lastSaved is
// the position of the checkpoint the campaign was restored from (-1 for a
// fresh campaign). Every worker starts from a copy-on-write view of the
// coordinator's corpus.
func newCoordinator(lc *LeaseCoordinator, newExec func() Executor, ws []*worker, lastSaved int) *coordinator {
	for _, w := range ws {
		if w != nil {
			w.corpus = lc.global.view()
		}
	}
	return &coordinator{
		lc: lc, newExec: newExec, ws: ws,
		lastSaved: lastSaved, nextCkpt: nextCheckpointAfter(lastSaved, lc.opt),
	}
}

// checkpointEvery resolves the effective checkpoint period.
func checkpointEvery(opt Options) int {
	if opt.CheckpointEvery > 0 {
		return opt.CheckpointEvery
	}
	return defaultCheckpointEvery
}

// nextCheckpointAfter returns the first periodic checkpoint threshold
// strictly past `done` iterations.
func nextCheckpointAfter(done int, opt Options) int {
	every := checkpointEvery(opt)
	return (done/every + 1) * every
}

// run drives the campaign to completion (or a MaxRounds pause) and returns
// the accumulated Stats. Workers only execute inside runRound, so between
// rounds the shards are quiescent; the fold goroutine may still be
// draining earlier rounds, and every path that reads the accumulator or the
// event-stream position (checkpoints, pause, completion) drains it first.
// The fold of the round that drains the budget emits campaign_end, so the
// final checkpoint's event position includes it.
func (c *coordinator) run() *Stats {
	lc := c.lc
	c.startFolder()
	for rounds := 0; !lc.finished; rounds++ {
		if lc.opt.MaxRounds > 0 && rounds >= lc.opt.MaxRounds {
			// Pause: persist the position and return the partial Stats
			// without campaign_end, so a later resume byte-continues the
			// event stream.
			c.stopFolder()
			c.writeCheckpoint(false)
			lc.acc.st.CorpusSize = lc.global.Len()
			return lc.acc.st
		}
		rf := c.acquireRecord()
		c.runRound(rf)
		c.foldCh <- rf
		c.inFlight++
		if !lc.finished && lc.Position() >= c.nextCkpt {
			c.drainFolds()
			c.writeCheckpoint(false)
			c.nextCkpt = nextCheckpointAfter(lc.Position(), lc.opt)
		}
	}
	c.stopFolder()
	c.writeCheckpoint(true)
	return lc.acc.st
}

// startFolder launches the fold goroutine that drains closed rounds.
func (c *coordinator) startFolder() {
	c.foldCh = make(chan *roundFold, pipelineDepth)
	c.foldDone = make(chan *roundFold, pipelineDepth)
	c.folderExit = make(chan struct{})
	go func() {
		defer close(c.folderExit)
		for rf := range c.foldCh {
			c.lc.foldRound(rf)
			c.foldDone <- rf
		}
	}()
}

// stopFolder drains the pipeline and shuts the fold goroutine down, so the
// caller may touch the accumulator and Observer directly afterwards.
func (c *coordinator) stopFolder() {
	c.drainFolds()
	close(c.foldCh)
	<-c.folderExit
}

// acquireRecord returns a round record to fill: a reclaimed one if
// available, a fresh one while under the pipeline depth, and otherwise it
// blocks until the folder finishes the oldest in-flight round — the
// back-pressure that bounds how far workers may run ahead of the fold.
func (c *coordinator) acquireRecord() *roundFold {
	if n := len(c.free); n > 0 {
		rf := c.free[n-1]
		c.free = c.free[:n-1]
		return rf
	}
	if c.records < pipelineDepth {
		c.records++
		return newRoundFold(len(c.ws))
	}
	rf := <-c.foldDone
	c.inFlight--
	return rf
}

// drainFolds blocks until every in-flight round has been folded. Callers
// that read the accumulator, emit through the Observer, or snapshot the
// campaign (checkpoints, completion) must drain first.
func (c *coordinator) drainFolds() {
	for c.inFlight > 0 {
		c.free = append(c.free, <-c.foldDone)
		c.inFlight--
	}
}

// runRound executes one batch round up to its barrier: the parallel phase
// (each open shard drains one batch under the fault supervisor, reporting
// straight into the coordinator's open round), then — workers quiescent —
// the LeaseCoordinator's barrier step and, when it re-offered seeds, the
// distribution of fresh corpus views. The fold step is left in rf for the
// fold goroutine, so the serial section of a round is just the seed
// re-offers and budget bookkeeping. rf's recycled outcome buffers are
// handed to the shards as batch scratch.
func (c *coordinator) runRound(rf *roundFold) {
	lc := c.lc
	round := lc.round + 1
	var wg sync.WaitGroup
	for i := range c.ws {
		if !lc.openShard(i) {
			continue
		}
		wg.Add(1)
		go func(i, n int, dst []outcome, fails []string) {
			defer wg.Done()
			lc.reports[i] = c.superviseShard(i, n, round, dst, fails)
		}(i, lc.batchSize(i), rf.outs[i][:0], rf.fails[i][:0])
	}
	wg.Wait()

	mergeStart := time.Now() //sonar:nondeterministic-ok merge duration feeds a BatchMerged metric, not canonical output
	if lc.closeBarrier(rf) {
		// The merge changed the corpus, or a worker diverged by retaining
		// locally: every worker restarts from a fresh copy-on-write view of
		// the merged global. Rounds that retain nothing — the steady state
		// once retention has converged — distribute nothing at all.
		for _, w := range c.ws {
			if w != nil {
				w.corpus = lc.global.view()
			}
		}
	}
	rf.mergeLat = time.Since(mergeStart) //sonar:nondeterministic-ok operator-facing duration metric only
}

// superviseShard drains one batch of n iterations of merge round `round` on
// shard i and returns the shard's report, retrying on a replacement worker
// (with bounded exponential backoff) after a panic or deadline abort. A
// successful retry replays the shard's pre-batch RNG cursor against a fresh
// snapshot of the global corpus — the global corpus is immutable during the
// parallel phase, so the replayed batch produces outcomes identical to the
// fault-free run, and the report carries the failed attempts for the fold's
// batch_retried. After MaxRetries failed retries the shard is reported
// abandoned.
//
// Only the first attempt writes into the recycled dst scratch; a failed
// attempt's goroutine may linger (a stalled batch runs to its own end or
// forever), so after any failure the scratch buffer is surrendered to that
// goroutine and retries append to fresh allocations.
func (c *coordinator) superviseShard(i, n, round int, dst []outcome, fails []string) shardReport {
	opt := c.lc.opt
	maxRetries := opt.MaxRetries
	if maxRetries == 0 {
		maxRetries = defaultMaxRetries
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	backoff := opt.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	for attempt := 0; ; attempt++ {
		w := c.ws[i]
		if attempt > 0 {
			shift := min(attempt-1, maxBackoffShift)
			time.Sleep(backoff << uint(shift))
			w = nil   // build a replacement inside the attempt goroutine
			dst = nil // the failed attempt's goroutine owns the scratch now
		}
		res, err := c.attemptBatch(w, dst, i, n, round)
		if err == nil {
			c.ws[i] = res.w
			return shardReport{resolved: true, outs: res.outs, seeds: res.w.takeNewSeeds(), cursor: res.w.src.cursor(), fails: fails}
		}
		fails = append(fails, err.Error())
		if attempt >= maxRetries {
			c.ws[i] = nil
			return shardReport{resolved: true, abandoned: true, fails: fails}
		}
	}
}

// attemptResult carries one successful batch attempt: its outcomes and the
// worker that produced them (the original, or a freshly built replacement).
type attemptResult struct {
	outs []outcome
	w    *worker
}

// attemptBatch runs one batch attempt in its own goroutine, recovering
// panics and enforcing the per-batch deadline (n × IterTimeout). w == nil
// means "build a replacement worker": a fresh executor with the shard's RNG
// replayed to the pre-batch cursor and a fresh global-corpus snapshot —
// built inside the attempt goroutine so a panicking constructor is
// recovered like any other worker fault. An abandoned (stalled) attempt's
// goroutine keeps only private state (including the dst buffer it was
// given) and sends into 1-buffered channels, so it can finish late, or
// never, without racing or leaking a send.
func (c *coordinator) attemptBatch(w *worker, dst []outcome, i, n, round int) (attemptResult, error) {
	opt := c.lc.opt
	cursor := c.lc.cursors[i]
	done := make(chan attemptResult, 1)
	failed := make(chan string, 1)
	start := time.Now() //sonar:nondeterministic-ok batch wall time feeds worker-busy metrics, not canonical output
	go func() {
		defer func() {
			if r := recover(); r != nil {
				failed <- fmt.Sprintf("worker panic: %v", r)
			}
		}()
		if w == nil {
			w = newShardWorker(i, c.newExec(), opt, cursor)
			// Deep-copy snapshot, not a view: view() mutates the global
			// corpus's freeze flag, which must not race with other shards'
			// replacement builds during the parallel phase. Content equals
			// the view the original worker held, so the replay is exact.
			w.corpus = c.lc.global.Snapshot()
		}
		done <- attemptResult{outs: w.runBatch(dst, n, round), w: w}
	}()

	var deadline <-chan time.Time
	if opt.IterTimeout > 0 {
		t := time.NewTimer(time.Duration(n) * opt.IterTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case res := <-done:
		opt.Observer.WorkerBatch(i, n, time.Since(start)) //sonar:nondeterministic-ok operator-facing duration metric only
		return res, nil
	case msg := <-failed:
		return attemptResult{}, fmt.Errorf("%s", msg)
	case <-deadline:
		return attemptResult{}, fmt.Errorf("batch deadline exceeded (%d iterations × %v)", n, opt.IterTimeout)
	}
}

// writeCheckpoint persists the campaign position when Options.Checkpoint is
// set. complete marks the final checkpoint of a finished campaign. Callers
// must have drained the fold pipeline, so the snapshot sees the exact
// accumulator and event-stream position of the barrier. Failures to write
// are reported through the checkpoint metrics staying flat — the campaign
// itself never aborts on checkpoint I/O errors (the operator loses
// durability, not results).
func (c *coordinator) writeCheckpoint(complete bool) {
	opt := c.lc.opt
	if opt.Checkpoint == "" {
		return
	}
	done := c.lc.Position()
	if !complete && done == c.lastSaved {
		return // already persisted at this position
	}
	start := time.Now() //sonar:nondeterministic-ok checkpoint save duration feeds a metric, not canonical output
	size, err := c.lc.Snapshot(complete).Save(opt.Checkpoint)
	if err != nil {
		return
	}
	c.lastSaved = done
	opt.Observer.CheckpointSaved(done, size, time.Since(start)) //sonar:nondeterministic-ok operator-facing duration metric only
}
