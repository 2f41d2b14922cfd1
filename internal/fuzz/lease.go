package fuzz

import (
	"fmt"
	"time"

	"sonar/internal/detect"
)

// LeaseCoordinator is the one owner of a parallel campaign's state — the
// per-shard budgets and RNG cursors, the merged corpus, the stats
// accumulator — and of its round barrier (docs/ARCHITECTURE.md). Two drivers
// advance it. The campaign service (docs/SERVICE.md) hands out one batch of
// one shard at a time as a Lease; any process executes it with
// ExecuteLeaseExec (a pure function of the lease and the campaign shape) and
// reports a LeaseResult back. RunParallelExec drives the same coordinator
// in-process with persistent shard workers, reporting outcomes and seeds
// directly, without a wire encoding. Both close every round through the same
// barrier and fold, so a distributed campaign over a fixed (Seed, Workers,
// BatchSize) produces the same final Stats and a byte-identical event stream
// to a local run — TestLeaseCoordinatorMatchesRunParallel pins this, and the
// service integration tests extend it across HTTP.

// Lease is one shard-batch work assignment: everything a worker needs —
// beyond the campaign shape, which the service hands out alongside — to
// execute the batch exactly as a local shard worker would have.
type Lease struct {
	// Shard is the worker index the batch belongs to (0-based); it fixes
	// the RNG stream (Seed+Shard) like a local worker index does.
	Shard int `json:"shard"`
	// Round is the 1-based merge round the batch belongs to.
	Round int `json:"round"`
	// N is the number of iterations to execute.
	N int `json:"n"`
	// Cursor is the shard's pre-batch RNG draw count; the executor replays
	// the shard generator to it, exactly like a replacement worker after a
	// local fault.
	Cursor uint64 `json:"cursor"`
	// Corpus is the merged global corpus as of the previous round barrier.
	Corpus CorpusWire `json:"corpus"`
}

// OutcomeWire is one iteration outcome in serialized form — the unit a
// LeaseResult carries back to the coordinator.
type OutcomeWire struct {
	// TC is the executed testcase in Testcase.Marshal form.
	TC string `json:"tc"`
	// Triggered is the contention points triggered by the double execution,
	// in execution order (the fold deduplicates against the global set).
	Triggered []int `json:"triggered,omitempty"`
	// Finding is the dual-differential finding, if any.
	Finding *detect.Finding `json:"finding,omitempty"`
	// Cycles is the double execution's total simulated cycle count.
	Cycles int64 `json:"cycles"`
	// Intvls is the merged per-point best distinct-request interval of the
	// double execution, point-sorted.
	Intvls []PointIntvl `json:"intvls,omitempty"`
}

// wireOutcome converts one outcome to its wire form.
func wireOutcome(o *outcome) OutcomeWire {
	return OutcomeWire{
		TC:        o.tc.Marshal(),
		Triggered: o.triggered,
		Finding:   o.finding,
		Cycles:    o.cycles,
		Intvls:    sortIntvls(o.intvls),
	}
}

// outcome rebuilds the in-memory outcome of a wire entry.
func (ow *OutcomeWire) outcome() (outcome, error) {
	tc, err := Unmarshal(ow.TC)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		tc:        tc,
		triggered: ow.Triggered,
		finding:   ow.Finding,
		cycles:    ow.Cycles,
		intvls:    unsortIntvls(ow.Intvls),
	}, nil
}

// LeaseResult is a worker's report for one executed lease: the batch's
// outcomes in execution order, the seeds the batch retained (in retention
// order), and the shard's post-batch RNG cursor. Its JSON encoding is
// deterministic (testcases in Marshal form, interval maps point-sorted), so
// re-executing the same lease produces byte-equal results — the property
// that makes lease re-offers after worker churn safe.
type LeaseResult struct {
	// Shard echoes the lease's shard index.
	Shard int `json:"shard"`
	// Round echoes the lease's merge round.
	Round int `json:"round"`
	// Cursor is the shard's post-batch RNG draw count.
	Cursor uint64 `json:"cursor"`
	// Outcomes are the batch's iteration outcomes in execution order.
	Outcomes []OutcomeWire `json:"outcomes"`
	// Seeds are the corpus seeds the batch retained, in retention order.
	Seeds []SeedWire `json:"seeds"`
}

// ExecuteLeaseExec runs one shard-batch lease to completion and returns its
// result. It is a pure function of (shape, lanes, lease): it builds a fresh
// shard worker with the lease's RNG cursor replayed and the lease's corpus
// installed — exactly the state a local replacement worker re-derives after
// a fault — and drains the batch through the same runBatch path local
// workers use. Executing the same lease twice returns equal results, so a
// lease lost to worker churn can simply be re-offered.
//
// lanes is the evaluator batch width (Options.Lanes), an operational knob
// that may differ per worker without changing any result: a GroupExecutor
// lease drains through the grouped batch loop, whose RNG order is lane-width
// independent.
func ExecuteLeaseExec(newExec func() Executor, shape Shape, lanes int, l *Lease) (*LeaseResult, error) {
	if l.Shard < 0 || l.Shard >= shape.Workers {
		return nil, fmt.Errorf("fuzz: lease shard %d out of range (campaign has %d workers)", l.Shard, shape.Workers)
	}
	if l.N < 1 || l.N > shape.BatchSize {
		return nil, fmt.Errorf("fuzz: lease batch of %d iterations outside [1, %d]", l.N, shape.BatchSize)
	}
	corpus, err := l.Corpus.corpus()
	if err != nil {
		return nil, fmt.Errorf("fuzz: lease corpus: %w", err)
	}
	opt := shape.Options()
	opt.Lanes = lanes
	w := newShardWorker(l.Shard, newExec(), opt, l.Cursor)
	w.corpus = corpus
	w.forceIntvls = true
	outs := w.runBatch(nil, l.N, l.Round)

	res := &LeaseResult{
		Shard:    l.Shard,
		Round:    l.Round,
		Cursor:   w.src.cursor(),
		Outcomes: make([]OutcomeWire, len(outs)),
	}
	for i := range outs {
		res.Outcomes[i] = wireOutcome(&outs[i])
	}
	for _, s := range w.takeNewSeeds() {
		res.Seeds = append(res.Seeds, wireSeed(s))
	}
	return res, nil
}

// shardReport is one shard's resolution of the open round: the batch it
// executed (outcomes, retained seeds, post-batch RNG cursor) or its
// abandonment. fails lists failed attempts in order — the reasons of an
// abandonment, or the attempts a batch recovered from, which the fold
// reports as batch_retried.
type shardReport struct {
	resolved  bool
	abandoned bool
	outs      []outcome
	seeds     []*Seed
	cursor    uint64
	fails     []string
}

// roundFold is one closed round's fold work: what the barrier collected per
// shard, plus its summary. closeBarrier fills it and foldRound drains it;
// the local engine recycles pipelineDepth of them, so the fold of round k
// runs while the workers execute round k+1.
type roundFold struct {
	round     int
	outs      [][]outcome // per shard; capacity recycled across rounds
	fails     [][]string  // failed-attempt reasons, per shard
	abandoned []bool      // shard abandoned at this round's barrier
	dropped   []int       // iterations dropped by the abandonment
	merged    int         // iterations merged at the barrier
	corpusLen int         // merged corpus size at the barrier
	mergeLat  time.Duration
	final     bool // the barrier drained the campaign's last budget
}

func newRoundFold(workers int) *roundFold {
	return &roundFold{
		outs:      make([][]outcome, workers),
		fails:     make([][]string, workers),
		abandoned: make([]bool, workers),
		dropped:   make([]int, workers),
	}
}

// LeaseCoordinator advances a campaign one resolved shard at a time. Each
// merge round, every shard with remaining budget is open for exactly one
// batch; once every open shard has reported or been abandoned, the round
// closes: closeBarrier does the budget accounting and corpus merge in
// canonical worker order, then foldRound does the stats fold and event
// emission. The service calls the two back to back; the local engine folds
// on a goroutine of its own, one round behind its workers.
//
// The coordinator is not safe for concurrent use; callers (the campaign
// service's controller, the local engine's main goroutine) serialize
// access. The one exception is the local engine's fold goroutine: foldRound
// touches only the accumulator and the Observer, which no other method
// reads or writes while a local campaign runs.
type LeaseCoordinator struct {
	opt     Options
	dut     string // netlist name, for checkpoints and campaign_start
	workers int
	batch   int
	rem     []int    // remaining iterations per shard
	cursors []uint64 // RNG draw count per shard, as of the last barrier
	left    int      // total remaining iterations
	round   int      // merge rounds completed

	acc    *statsAccum
	global *Corpus

	reports []shardReport // open round, per shard; reset at each barrier
	// finished is set by the barrier that drains the last budget; that
	// round's fold emits campaign_end.
	finished bool
}

// newLeaseCoordinator assembles a coordinator over restored or fresh state.
func newLeaseCoordinator(opt Options, dut string, rem []int, cursors []uint64, acc *statsAccum, global *Corpus) *LeaseCoordinator {
	workers, batch := normalizeParallel(opt)
	left := 0
	for _, r := range rem {
		left += r
	}
	return &LeaseCoordinator{
		opt: opt, dut: dut, workers: workers, batch: batch,
		rem: rem, cursors: cursors, left: left,
		acc: acc, global: global,
		reports: make([]shardReport, workers),
	}
}

// NewLeaseCoordinator opens a campaign: it splits opt's iteration budget
// into static shards — worker w owns iterations w, w+workers, ... — and
// emits the campaign_start event through opt.Observer. d is one executor
// instance of the campaign (a behavioral *DUT or a netlist LaneDUT); it
// backs the stats fold (point analysis) and is never executed by the
// coordinator.
func NewLeaseCoordinator(d Executor, opt Options) *LeaseCoordinator {
	workers, batch := normalizeParallel(opt)
	rem := make([]int, workers)
	for i := range rem {
		rem[i] = opt.Iterations / workers
		if i < opt.Iterations%workers {
			rem[i]++
		}
	}
	an := d.ContentionAnalysis()
	lc := newLeaseCoordinator(opt, an.Netlist.Name(), rem, make([]uint64, workers), newStatsAccum(an, opt), NewCorpus())
	observeCompile(opt.Observer, d)
	opt.Observer.CampaignStart(lc.dut, opt.Iterations, workers, batch, opt.Seed)
	if lc.left == 0 {
		lc.finish()
	}
	return lc
}

// ResumeLeaseCoordinator reopens a campaign from a checkpoint. opt must
// describe the same campaign shape as the checkpoint; the resumed
// coordinator's remaining rounds — Stats and event stream included — are
// identical to the uninterrupted campaign's.
func ResumeLeaseCoordinator(d Executor, opt Options, cp *Checkpoint) (*LeaseCoordinator, error) {
	lc, err := restoreLeaseCoordinator(opt, cp)
	if err != nil {
		return nil, err
	}
	lc.resume(d, cp)
	return lc, nil
}

// restoreLeaseCoordinator rebuilds a checkpoint's campaign state without
// emitting anything; resume then attaches an executor and reopens it.
func restoreLeaseCoordinator(opt Options, cp *Checkpoint) (*LeaseCoordinator, error) {
	if err := cp.validate(); err != nil {
		return nil, err
	}
	if got, want := shapeOf(opt), cp.Shape; got != want {
		return nil, fmt.Errorf("fuzz: resume shape mismatch: options %+v vs checkpoint %+v", got, want)
	}
	acc, err := cp.accum(opt)
	if err != nil {
		return nil, err
	}
	global, err := cp.Corpus.corpus()
	if err != nil {
		return nil, fmt.Errorf("fuzz: checkpoint %w", err)
	}
	lc := newLeaseCoordinator(opt, cp.DUT, append([]int(nil), cp.Rem...), append([]uint64(nil), cp.Cursors...), acc, global)
	lc.round = cp.Round
	return lc, nil
}

// resume attaches the executor backing the stats fold (nil when no shard
// has budget left to fold), emits campaign_resumed, and finalizes a
// campaign the checkpoint leaves with nothing to execute. A complete
// checkpoint's campaign_end was already emitted by the original run.
func (lc *LeaseCoordinator) resume(d Executor, cp *Checkpoint) {
	if d != nil {
		lc.acc.an = d.ContentionAnalysis()
		observeCompile(lc.opt.Observer, d)
	}
	st := lc.acc.st
	var lastIter IterStats
	if n := len(st.PerIteration); n > 0 {
		lastIter = st.PerIteration[n-1]
	}
	lc.opt.Observer.CampaignResumed(cp.EventSeq, len(st.PerIteration),
		lastIter.CumPoints, lastIter.CumTimingDiffs, len(st.Findings),
		lc.global.Len(), st.ExecutedCycles)
	switch {
	case cp.Complete:
		st.CorpusSize = lc.global.Len()
		lc.finished = true
	case lc.left == 0:
		lc.finish()
	}
}

// Shape returns the campaign's shape (effective workers and batch size
// included) — what lease executors pass to ExecuteLeaseExec.
func (lc *LeaseCoordinator) Shape() Shape { return shapeOf(lc.opt) }

// DUT returns the netlist name of the device under test.
func (lc *LeaseCoordinator) DUT() string { return lc.dut }

// Finished reports whether the campaign has drained (or dropped) its whole
// iteration budget and emitted campaign_end.
func (lc *LeaseCoordinator) Finished() bool { return lc.finished }

// Round returns the number of completed merge rounds.
func (lc *LeaseCoordinator) Round() int { return lc.round }

// Position returns the campaign position in iterations: executed plus
// dropped by abandoned shards, as of the last round barrier.
func (lc *LeaseCoordinator) Position() int { return lc.opt.Iterations - lc.left }

// Stats returns the accumulated campaign statistics as of the last round
// barrier. The result is final once Finished reports true; before that it
// is a live view that later rounds extend.
func (lc *LeaseCoordinator) Stats() *Stats { return lc.acc.st }

// CorpusLen returns the merged global corpus size as of the last round
// barrier (Stats.CorpusSize is only set at campaign end).
func (lc *LeaseCoordinator) CorpusLen() int { return lc.global.Len() }

// OpenShards returns the shards of the current round that still need a
// lease executed: remaining budget, not yet reported, not abandoned. An
// empty result means the campaign is finished (the round barrier closes as
// the last open shard resolves).
func (lc *LeaseCoordinator) OpenShards() []int {
	var open []int
	for i := 0; i < lc.workers; i++ {
		if lc.openShard(i) {
			open = append(open, i)
		}
	}
	return open
}

func (lc *LeaseCoordinator) openShard(i int) bool {
	return !lc.finished && lc.rem[i] > 0 && !lc.reports[i].resolved
}

// batchSize is the iteration count of shard i's batch this round.
func (lc *LeaseCoordinator) batchSize(i int) int {
	return min(lc.rem[i], lc.batch)
}

// Lease builds the work assignment for an open shard of the current round.
// The same lease may be built (and executed) any number of times — results
// are deterministic — which is how the service re-offers leases lost to
// worker churn.
func (lc *LeaseCoordinator) Lease(shard int) (*Lease, error) {
	if shard < 0 || shard >= lc.workers {
		return nil, fmt.Errorf("fuzz: shard %d out of range (campaign has %d workers)", shard, lc.workers)
	}
	if !lc.openShard(shard) {
		return nil, fmt.Errorf("fuzz: shard %d has no open lease this round", shard)
	}
	return &Lease{
		Shard:  shard,
		Round:  lc.round + 1,
		N:      lc.batchSize(shard),
		Cursor: lc.cursors[shard],
		Corpus: newCorpusWire(lc.global),
	}, nil
}

// Report folds one executed lease's result in. The result must belong to an
// open shard of the current round, carry exactly the leased batch size, and
// name only contention points of the campaign's analysis; a malformed or
// stale result is rejected without touching campaign state. When the last
// open shard of the round resolves, the round barrier closes: seeds merge
// into the global corpus in canonical worker order, outcomes fold into
// Stats, and the round's events are emitted.
func (lc *LeaseCoordinator) Report(res *LeaseResult) error {
	if res == nil {
		return fmt.Errorf("fuzz: nil lease result")
	}
	if res.Shard < 0 || res.Shard >= lc.workers {
		return fmt.Errorf("fuzz: lease result for shard %d out of range (campaign has %d workers)", res.Shard, lc.workers)
	}
	if res.Round != lc.round+1 {
		return fmt.Errorf("fuzz: lease result for round %d, campaign is at round %d", res.Round, lc.round+1)
	}
	if !lc.openShard(res.Shard) {
		return fmt.Errorf("fuzz: shard %d has no open lease this round", res.Shard)
	}
	if want := lc.batchSize(res.Shard); len(res.Outcomes) != want {
		return fmt.Errorf("fuzz: lease result carries %d outcomes, lease was for %d", len(res.Outcomes), want)
	}
	points := len(lc.acc.an.Points)
	rep := shardReport{resolved: true, cursor: res.Cursor, outs: make([]outcome, len(res.Outcomes))}
	for i := range res.Outcomes {
		ow := &res.Outcomes[i]
		if err := checkPointIDs(points, ow.Triggered, ow.Intvls); err != nil {
			return fmt.Errorf("fuzz: lease result outcome %d: %w", i, err)
		}
		o, err := ow.outcome()
		if err != nil {
			return fmt.Errorf("fuzz: lease result outcome %d: %w", i, err)
		}
		rep.outs[i] = o
	}
	for i := range res.Seeds {
		sw := &res.Seeds[i]
		if err := checkPointIDs(points, nil, sw.Intvls); err != nil {
			return fmt.Errorf("fuzz: lease result seed %d: %w", i, err)
		}
		if sw.Target < -1 || sw.Target >= points {
			return fmt.Errorf("fuzz: lease result seed %d: target point %d out of range [-1, %d)", i, sw.Target, points)
		}
		s, err := sw.seed()
		if err != nil {
			return fmt.Errorf("fuzz: lease result seed %d: %w", i, err)
		}
		rep.seeds = append(rep.seeds, s)
	}
	lc.reports[res.Shard] = rep
	lc.maybeCloseRound()
	return nil
}

// checkPointIDs rejects contention point IDs outside [0, points): the stats
// fold and the corpus index the campaign's analysis by them.
func checkPointIDs(points int, ids []int, intvls []PointIntvl) error {
	for _, id := range ids {
		if id < 0 || id >= points {
			return fmt.Errorf("point %d out of range [0, %d)", id, points)
		}
	}
	for _, pi := range intvls {
		if pi.Point < 0 || pi.Point >= points {
			return fmt.Errorf("interval point %d out of range [0, %d)", pi.Point, points)
		}
	}
	return nil
}

// Abandon drops an open shard from the current round after its lease
// repeatedly failed: the shard's remaining budget is removed from the
// campaign at the round barrier, and the barrier's fold emits one
// worker_failed event per reason (the failed attempts, in order) followed
// by the abandonment disposition — the same degraded-but-deterministic
// completion a local campaign reaches when a shard exhausts its retries.
func (lc *LeaseCoordinator) Abandon(shard int, reasons []string) error {
	if shard < 0 || shard >= lc.workers {
		return fmt.Errorf("fuzz: shard %d out of range (campaign has %d workers)", shard, lc.workers)
	}
	if !lc.openShard(shard) {
		return fmt.Errorf("fuzz: shard %d has no open lease this round", shard)
	}
	if len(reasons) == 0 {
		return fmt.Errorf("fuzz: abandoning shard %d without failure reasons", shard)
	}
	lc.reports[shard] = shardReport{resolved: true, abandoned: true, fails: reasons}
	lc.maybeCloseRound()
	return nil
}

// maybeCloseRound closes the round barrier once no shard is still open,
// running the barrier and the fold back to back.
func (lc *LeaseCoordinator) maybeCloseRound() {
	for i := 0; i < lc.workers; i++ {
		if lc.openShard(i) {
			return
		}
	}
	rf := newRoundFold(lc.workers)
	lc.closeBarrier(rf)
	lc.foldRound(rf)
}

// closeBarrier is the barrier step of a round, in canonical worker order:
// budget accounting (an abandoned shard's whole remaining budget is
// dropped), RNG cursor advances, and seed re-offers to the global corpus
// (re-offering drops seeds another shard has already beaten). It moves the
// round's reports into rf for foldRound and reports whether any seed was
// offered — that is, whether shard corpora may now differ from the global
// corpus. It touches neither the accumulator nor the Observer, so the local
// engine runs it while the previous round still folds.
func (lc *LeaseCoordinator) closeBarrier(rf *roundFold) (reoffered bool) {
	lc.round++
	rf.round, rf.merged = lc.round, 0
	for i := range lc.reports {
		rep := &lc.reports[i]
		rf.outs[i], rf.fails[i], rf.abandoned[i], rf.dropped[i] = nil, rep.fails, rep.abandoned, 0
		switch {
		case rep.abandoned:
			rf.dropped[i] = lc.rem[i]
			lc.left -= lc.rem[i]
			lc.rem[i] = 0
		case rep.resolved:
			n := len(rep.outs)
			rf.outs[i] = rep.outs
			rf.merged += n
			lc.rem[i] -= n
			lc.left -= n
			lc.cursors[i] = rep.cursor
			for _, s := range rep.seeds {
				lc.global.Offer(s.TC, s.Intvls, s.Dir, s.Target)
				reoffered = true
			}
		}
		*rep = shardReport{}
	}
	rf.corpusLen = lc.global.Len()
	rf.final = lc.left == 0
	lc.finished = rf.final
	return reoffered
}

// foldRound is the fold step of a closed round, in the order every engine's
// event stream pins: per shard, each failed attempt as worker_failed, then
// the disposition (abandonment, or batch_retried for a recovered batch);
// the per-outcome stats fold in worker order; batch_merged with the
// barrier's corpus summary; and campaign_end when the round drained the
// campaign. It reads only rf and the accumulator — never the corpus or the
// shard budgets — so it may run concurrently with the next round's barrier.
func (lc *LeaseCoordinator) foldRound(rf *roundFold) {
	o := lc.opt.Observer
	for i, fails := range rf.fails {
		for a, reason := range fails {
			o.WorkerFailed(i, rf.round, a+1, reason)
		}
		switch {
		case rf.abandoned[i]:
			o.WorkerFailed(i, rf.round, abandonAttempt,
				fmt.Sprintf("shard abandoned after %d failed attempts; %d iterations dropped", len(fails), rf.dropped[i]))
		case len(fails) > 0:
			o.BatchRetried(i, rf.round, len(fails)+1)
		}
	}
	for _, outs := range rf.outs {
		lc.acc.applyAll(outs)
	}
	o.BatchMerged(rf.round, rf.merged, rf.corpusLen, rf.mergeLat)
	if rf.final {
		lc.acc.st.CorpusSize = rf.corpusLen
		lc.acc.finish()
	}
}

// finish finalizes a campaign with nothing left to execute: corpus size
// lands in Stats and campaign_end is emitted.
func (lc *LeaseCoordinator) finish() {
	lc.acc.st.CorpusSize = lc.global.Len()
	lc.acc.finish()
	lc.finished = true
}

// Snapshot captures the campaign as a Checkpoint at the last closed round
// barrier. Reports received for the still-open round are not included —
// resuming the snapshot re-opens that round, and its leases simply
// re-execute (deterministically) — so a snapshot may be taken at any time
// the fold is not running.
func (lc *LeaseCoordinator) Snapshot(complete bool) *Checkpoint {
	cp := &Checkpoint{
		Version:  checkpointVersion,
		DUT:      lc.dut,
		Shape:    shapeOf(lc.opt),
		Done:     lc.Position(),
		Round:    lc.round,
		Rem:      append([]int(nil), lc.rem...),
		Cursors:  append([]uint64(nil), lc.cursors...),
		EventSeq: lc.opt.Observer.Seq(),
		Complete: complete,
		Stats:    lc.acc.st.Wire(),
		Corpus:   newCorpusWire(lc.global),
	}
	cp.Stats.CorpusSize = lc.global.Len()
	if lc.acc.best != nil {
		cp.Stats.Best = sortIntvls(lc.acc.best)
	}
	return cp
}
