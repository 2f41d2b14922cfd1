package fuzz

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// defaultBatchSize is the per-worker iteration count between two corpus
// merges when Options.BatchSize is zero. Executions dominate the cost of an
// iteration, so a few dozen iterations amortize the merge barrier while
// keeping retention/selection feedback near-global.
const defaultBatchSize = 32

// batchRetries is how many times a failed batch — a panicked or timed-out
// local attempt, or an expired service lease — is retried before its shard
// is abandoned (LeaseCoordinator.fail). A replay is deterministic, so it
// starts at once: waiting would only delay recovery.
const batchRetries = 2

// abandonAttempt is the Attempt value of the worker_failed event that
// reports a shard abandonment. Failed batch attempts are numbered 1..N; the
// abandonment is a disposition, not an attempt, and carries 0 so it can
// never collide with a real attempt number (see obs.WorkerFailed).
const abandonAttempt = 0

// coordinator is the in-process driver of a LeaseCoordinator — the campaign
// engine. The LeaseCoordinator owns the campaign state, the round barrier and
// the retry policy; the coordinator keeps only what is local to a process:
//
//   - per-shard state (worker), reported to the barrier directly (outcomes
//     and seeds, never their wire encoding);
//   - a pool of executor goroutines (run, execute): any runs any shard;
//   - fault recovery in the main loop (runRound, retry);
//   - periodic checkpoint writes and the MaxRounds pause.
//
// The main goroutine closes every round with LeaseCoordinator.closeRound,
// as the campaign service does, so Stats, PerIteration, and the event
// stream are byte-identical per (Seed, Workers, BatchSize); only the
// wall-clock schedule differs from the campaign service's.
type coordinator struct {
	lc      *LeaseCoordinator
	newExec func() Executor
	ws      []*worker // nil entry = abandoned or drained shard
	// lastSaved and nextCkpt drive periodic checkpointing: a checkpoint is
	// cut at the first merge barrier at or past every nextCkpt iterations.
	lastSaved int
	nextCkpt  int

	// Executor pool. quit closes when the campaign returns; inFlight holds
	// each shard's current attempt; timer fires at the earliest in-flight
	// deadline (nil without IterTimeout).
	jobs     chan *job
	results  chan *job
	quit     chan struct{}
	inFlight []*job
	timer    *time.Timer
}

// job is one batch attempt: shard state w executes len(outs) iterations of
// merge round `round` into outs, w's slots. The executor goroutine fills
// outs, or err after a recovered panic; the main loop alone stamps start
// and deadline and sets expired. A failed attempt keeps its w and outs, so a late finish touches
// nothing the retry uses.
type job struct {
	w        *worker
	round    int
	outs     []outcome
	err      string
	start    time.Time
	deadline time.Time
	expired  atomic.Bool
}

// normalizeParallel returns the effective (post-clamp) worker count and
// batch size of a campaign — the values CampaignStart reports and
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

// RunParallelExec executes a fuzzing campaign — the one campaign engine:
// Options.Workers shards, each with a private RNG stream and corpus view,
// execute batches of testcases on a pool of min(Workers, GOMAXPROCS)
// executors built by newExec (behavioral *DUTs or netlist LaneDUTs); after
// every batch round the LeaseCoordinator's barrier merges retained seeds into
// the global corpus in canonical shard order, the round's statistics and
// events fold on the caller's goroutine, and every shard restarts from the
// merged view. The first executor built also backs the stats fold.
//
// Determinism contract: shard w draws from rand.NewSource(opt.Seed+w), the
// batch schedule is static, and merges happen in shard order, so a campaign
// is reproducible for a fixed (Seed, Workers, BatchSize) — and Workers <= 1
// reproduces the pinned serial trajectory (TestParallelWorkers1MatchesSerial)
// at every BatchSize. Which executor runs which shard, and how many
// executors there are, never changes a result. The contract extends to
// observability: opt.Observer's events are emitted only as each round
// closes, in canonical worker order, so the event stream (and
// Stats.PerIteration, which it mirrors) is byte-identical across runs and to
// the campaign service's; executor goroutines update atomic metrics only.
//
// Durability (docs/CAMPAIGNS.md): with Options.Checkpoint set, the engine
// writes an atomic campaign snapshot at merge barriers every CheckpointEvery
// iterations; ResumeExec restores one into a campaign whose remaining
// iterations — Stats and event stream included — are identical to the
// uninterrupted run.
// Executor panics and (with IterTimeout) wedged iterations are recovered by
// re-queueing the shard's batch from its pre-batch state; a shard that keeps
// failing is abandoned and the campaign completes on the remaining shards.
func RunParallelExec(newExec func() Executor, opt Options) *Stats {
	e := newExec()
	return newCoordinator(NewLeaseCoordinator(e, opt), newExec, -1).run(e)
}

// ResumeExec continues a checkpointed campaign. opt must describe the same
// campaign shape (Seed, Workers, BatchSize, iteration budget, strategy
// switches) as the checkpoint; operational fields (Checkpoint,
// CheckpointEvery, MaxRounds, IterTimeout, Observer, FaultHook, Lanes) are
// free to differ — the usual way to build opt is cp.CampaignOptions() plus
// operational overrides.
//
// The resumed campaign is bit-identical to the uninterrupted run: the final
// Stats match, and the event stream emitted after ResumeExec byte-continues
// the stream the interrupted run emitted before the checkpoint (sequence
// numbers included; no campaign_start is re-emitted).
func ResumeExec(newExec func() Executor, opt Options, cp *Checkpoint) (*Stats, error) {
	e := newExec()
	lc, err := restoreLeaseCoordinator(e, opt, cp)
	if err != nil {
		return nil, err
	}
	if lc.left == 0 {
		e = nil // no shard has budget left: nothing to execute
	}
	lc.resume(e, cp)
	if cp.Complete {
		return lc.acc.st, nil
	}
	return newCoordinator(lc, newExec, cp.Done).run(e), nil
}

// newCoordinator wraps a LeaseCoordinator in the local driver. lastSaved is
// the position of the checkpoint the campaign was restored from (-1 for a
// fresh campaign). Every shard with budget left starts from newShard.
func newCoordinator(lc *LeaseCoordinator, newExec func() Executor, lastSaved int) *coordinator {
	c := &coordinator{
		lc: lc, newExec: newExec, ws: make([]*worker, lc.workers),
		lastSaved: lastSaved, nextCkpt: nextCheckpointAfter(lastSaved, lc.opt),
		jobs: make(chan *job), results: make(chan *job), quit: make(chan struct{}),
		inFlight: make([]*job, lc.workers),
	}
	for i := range c.ws {
		if lc.rem[i] > 0 {
			c.ws[i] = c.newShard(i)
		}
	}
	return c
}

// newShard builds shard i's state as of the last barrier: the RNG replayed
// to the shard's cursor and a view of the merged corpus. Between barriers
// the global corpus is immutable and every shard's corpus equals it, so a
// shard rebuilt after a failed attempt replays the batch exactly.
func (c *coordinator) newShard(i int) *worker {
	return newShardWorker(i, c.lc.opt, c.lc.cursors[i], c.lc.global.view(), nil)
}

// nextCheckpointAfter returns the first periodic checkpoint threshold
// strictly past `done` iterations.
func nextCheckpointAfter(done int, opt Options) int {
	every := opt.CheckpointEvery
	if every <= 0 {
		every = defaultCheckpointEvery
	}
	return (done/every + 1) * every
}

// run drives the campaign to completion (or a MaxRounds pause) and returns
// the accumulated Stats. It starts the executor pool — the first goroutine
// takes e, the others build their own concurrently — and on return closes
// quit without waiting: idle goroutines exit at once, one still building
// its executor once built, a given-up one when its batch ends. Shards only
// execute inside runRound, which returns with the round closed, so
// checkpoints, the pause and completion see the exact accumulator and
// event-stream position of the barrier. The close of the round that drains
// the budget emits campaign_end, so the final checkpoint's event position
// includes it.
func (c *coordinator) run(e Executor) *Stats {
	lc := c.lc
	defer close(c.quit)
	if lc.opt.IterTimeout > 0 {
		c.timer = time.NewTimer(time.Hour)
		c.timer.Stop()
	}
	for i := min(len(lc.OpenShards()), runtime.GOMAXPROCS(0)); i > 0; i-- {
		go c.execute(e)
		e = nil
	}
	for rounds := 0; !lc.finished; rounds++ {
		if lc.opt.MaxRounds > 0 && rounds >= lc.opt.MaxRounds {
			// Pause: persist the position and return the partial Stats
			// without campaign_end, so a later resume byte-continues the
			// event stream.
			c.writeCheckpoint(false)
			lc.acc.st.CorpusSize = lc.global.Len()
			return lc.acc.st
		}
		c.runRound()
		if !lc.finished && lc.Position() >= c.nextCkpt {
			c.writeCheckpoint(false)
			c.nextCkpt = nextCheckpointAfter(lc.Position(), lc.opt)
		}
	}
	c.writeCheckpoint(true)
	return lc.acc.st
}

// execute is one pool goroutine: it holds executor e (building one when e
// is nil) and runs the batches it receives, recovering a panic into the
// job's err, until the campaign returns. After a panicked or given-up
// attempt it exits (retry has started its replacement); a given-up
// attempt's late result is dropped by the main loop, or released by quit,
// so it never blocks for good.
func (c *coordinator) execute(e Executor) {
	if e == nil {
		e = c.newExec()
	}
	for {
		var j *job
		select {
		case j = <-c.jobs:
		case <-c.quit:
			return
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					j.err = fmt.Sprintf("worker panic: %v", r)
				}
			}()
			j.w.runBatch(e, j.outs, groupWidth(e), j.round)
		}()
		select {
		case c.results <- j:
		case <-c.quit:
			return
		}
		if j.err != "" || j.expired.Load() {
			return
		}
	}
}

// runRound executes one batch round up to its barrier. It queues every open
// shard's batch and hands the queue to the executor pool one batch at a
// time; jobs is unbuffered, so a batch's deadline of n × IterTimeout starts
// when a goroutine receives it. A finished batch resolves its shard's
// report; a panicked attempt, or one past its deadline, goes to retry. Then
// — shards quiescent — the LeaseCoordinator closes the round and, when it
// re-offered seeds, every shard gets a fresh corpus view.
func (c *coordinator) runRound() {
	lc := c.lc
	var queue []*job
	for i, w := range c.ws {
		if lc.openShard(i) {
			queue = append(queue, &job{w: w, round: lc.round + 1, outs: w.slotsFor(lc.batchSize(i))})
		}
	}
	for open := len(queue); open > 0; {
		var jobs chan *job
		var next *job
		if len(queue) > 0 {
			jobs, next = c.jobs, queue[0]
		}
		select {
		case jobs <- next:
			queue = queue[1:]
			next.start = time.Now() //sonar:nondeterministic-ok batch deadline and busy-time metric only
			next.deadline = next.start.Add(time.Duration(len(next.outs)) * lc.opt.IterTimeout)
			c.inFlight[next.w.id] = next
		case j := <-c.results:
			i := j.w.id
			if c.inFlight[i] != j {
				continue // a given-up attempt that finished late
			}
			c.inFlight[i] = nil
			if j.err != "" {
				queue, open = c.retry(j, j.err, queue, open)
				break
			}
			lc.opt.Observer.WorkerBatch(i, len(j.outs), time.Since(j.start)) //sonar:nondeterministic-ok operator-facing duration metric only
			rep := &lc.reports[i]
			rep.resolved, rep.outs, rep.seeds, rep.cursor = true, j.outs, j.w.takeNewSeeds(), j.w.src.cursor()
			c.ws[i] = j.w
			open--
		case <-c.deadline():
			now := time.Now() //sonar:nondeterministic-ok batch deadline only
			for i, j := range c.inFlight {
				if j != nil && !j.deadline.After(now) {
					j.expired.Store(true)
					c.inFlight[i] = nil
					queue, open = c.retry(j, fmt.Sprintf("batch deadline exceeded (%d iterations × %v)", len(j.outs), lc.opt.IterTimeout), queue, open)
				}
			}
		}
	}

	if lc.closeRound() {
		// The merge changed the corpus, or a shard diverged by retaining
		// locally: every shard restarts from a fresh copy-on-write view of
		// the merged global. Rounds that retain nothing — the steady state
		// once retention has converged — distribute nothing at all.
		for _, w := range c.ws {
			if w != nil {
				w.corpus = lc.global.view()
			}
		}
	}
}

// retry handles a failed attempt: it replaces the goroutine that ran it,
// records the failure (LeaseCoordinator.fail), and re-queues the batch on a
// rebuilt shard unless the failure abandoned the shard. It returns the
// updated queue and open-shard count.
func (c *coordinator) retry(j *job, reason string, queue []*job, open int) ([]*job, int) {
	go c.execute(nil)
	i := j.w.id
	if c.lc.fail(i, reason) {
		c.ws[i] = nil
		return queue, open - 1
	}
	w := c.newShard(i)
	return append(queue, &job{w: w, round: j.round, outs: w.slotsFor(len(j.outs))}), open
}

// deadline points the deadline timer at the earliest in-flight deadline and
// returns its channel — nil, which never fires, without IterTimeout or with
// nothing in flight.
func (c *coordinator) deadline() <-chan time.Time {
	if c.timer == nil {
		return nil
	}
	if !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
		}
	}
	var first *job
	for _, j := range c.inFlight {
		if j != nil && (first == nil || j.deadline.Before(first.deadline)) {
			first = j
		}
	}
	if first == nil {
		return nil
	}
	c.timer.Reset(time.Until(first.deadline)) //sonar:nondeterministic-ok batch deadline only
	return c.timer.C
}

// writeCheckpoint persists the campaign position when Options.Checkpoint is
// set. complete marks the final checkpoint of a finished campaign. Failures
// to write are reported through the checkpoint metrics staying flat — the
// campaign itself never aborts on checkpoint I/O errors (the operator loses
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
