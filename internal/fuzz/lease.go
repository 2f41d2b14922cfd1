package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"time"

	"sonar/internal/detect"
)

// Lease is one shard-batch work assignment: everything a worker needs —
// beyond the campaign shape, which the service hands out alongside, and the
// corpus prefix the worker already holds — to execute the batch exactly as
// the local engine would have.
type Lease struct {
	// Shard is the worker index the batch belongs to (0-based); it fixes
	// the RNG stream (Seed+Shard) like a local worker index does.
	Shard int
	// Round is the 1-based merge round the batch belongs to.
	Round int
	// N is the number of iterations to execute.
	N int
	// Cursor is the shard's pre-batch RNG draw count; the executor replays
	// the shard generator to it, exactly like the local engine rebuilding a
	// shard after a failed attempt.
	Cursor uint64
	// CorpusFrom names the prefix of the merged corpus the lease does not
	// carry because the worker already holds it; the zero ref (the empty
	// prefix) makes the lease carry the whole corpus.
	CorpusFrom CorpusRef
	// CorpusDigest is the digest chain value over the whole merged corpus,
	// which the executor checks the shipped seeds against.
	CorpusDigest string
	// Corpus is the merged global corpus as of the previous round barrier,
	// minus its first CorpusFrom.Len seeds: Seeds holds only the seeds the
	// worker lacks, Best is always whole.
	Corpus CorpusWire
}

// CorpusRef names a prefix of a campaign's merged corpus: its first Len
// seeds and the digest chain value over them. The merged corpus only grows
// by appending, so a corpus a worker received for one round is a prefix of
// every later round's, and a ref is all a lease needs to ship the rest.
type CorpusRef struct {
	// Len is the number of seeds in the prefix.
	Len int
	// Digest is the chain value after those seeds (chainDigest); the empty
	// prefix's is "".
	Digest string
}

// chainDigest extends a corpus digest chain by one seed: the hex SHA-256
// of the previous chain value and the seed's canonical wire fields. (Writes
// to a hash.Hash never fail.)
func chainDigest(prev string, sw *SeedWire) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %d %d\n", prev, sw.Dir, sw.Target, len(sw.TC))
	io.WriteString(h, sw.TC)
	for _, pi := range sw.Intvls {
		fmt.Fprintf(h, " %d:%d", pi.Point, pi.Intvl)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HeldCorpus is the merged-corpus prefix a lease executor keeps between
// leases of one campaign, so that each lease ships only the seeds it lacks.
// ExecuteLease returns the holding to pass to the next lease, and Ref names
// it to the coordinator. A nil holding holds the empty prefix. The holdings
// of one chain also share the worker of every shard the executor ran —
// its RNG source at the cursor its last batch left, its outcome slots and
// its slabs (shardCache).
type HeldCorpus struct {
	ref    CorpusRef
	seeds  []*Seed // len(seeds) == ref.Len; never appended to in place
	shards *shardCache
}

// Ref names the held prefix.
func (h *HeldCorpus) Ref() CorpusRef {
	if h == nil {
		return CorpusRef{}
	}
	return h.ref
}

// extend returns the holding after l: the prefix l.CorpusFrom names, which
// must be the empty prefix or h's own, followed by the seeds l carries,
// whose digest chain must end at l.CorpusDigest.
func (h *HeldCorpus) extend(l *Lease) (*HeldCorpus, error) {
	from := l.CorpusFrom
	var seeds []*Seed
	if from.Len != 0 || from.Digest != "" {
		if have := h.Ref(); from != have {
			return nil, fmt.Errorf("lease extends corpus prefix %d (%.12s), executor holds %d (%.12s)", from.Len, from.Digest, have.Len, have.Digest)
		}
		seeds = h.seeds[:from.Len:from.Len] // capped: appending copies
	}
	digest := from.Digest
	for i := range l.Corpus.Seeds {
		sw := &l.Corpus.Seeds[i]
		s, err := sw.seed()
		if err != nil {
			return nil, fmt.Errorf("corpus seed %d: %w", from.Len+i, err)
		}
		seeds = append(seeds, s)
		digest = chainDigest(digest, sw)
	}
	if digest != l.CorpusDigest {
		return nil, fmt.Errorf("corpus of %d seeds has digest %.12s, lease names %.12s", len(seeds), digest, l.CorpusDigest)
	}
	shards := &shardCache{}
	if h != nil {
		shards = h.shards
	}
	return &HeldCorpus{ref: CorpusRef{Len: len(seeds), Digest: digest}, seeds: seeds, shards: shards}, nil
}

// OutcomeWire is one iteration's feedback in serialized form — the unit a
// LeaseResult carries back to the coordinator. The testcase does not travel:
// the coordinator draws it again when it replays the batch.
type OutcomeWire struct {
	// Triggered is the contention points triggered by the double execution,
	// in execution order (the fold deduplicates against the global set).
	Triggered []int
	// Finding is the dual-differential finding, if any.
	Finding *detect.Finding
	// Cycles is the double execution's total simulated cycle count.
	Cycles int64
	// Intvls is the double execution's feedback vector: its merged
	// per-point best distinct-request interval, ascending by point.
	Intvls []PointIntvl
}

// into writes the feedback of a wire entry into slot o, sharing its lists;
// replay adds the testcase.
func (ow *OutcomeWire) into(o *outcome) {
	o.triggered, o.cycles, o.intvls = ow.Triggered, ow.Cycles, ow.Intvls
	o.found = ow.Finding != nil
	if o.found {
		o.finding = *ow.Finding
	}
}

// LeaseResult is a worker's report for one executed lease: the feedback of
// the batch's iterations, in execution order. That is all the coordinator
// needs — the batch's testcases, retained seeds, and post-batch RNG cursor
// follow from the lease and the feedback, and the coordinator replays them
// itself (LeaseCoordinator.Report). It is deterministic, so re-executing
// the same lease produces results whose wire encodings (the campaign
// service's report body) are byte-equal — the property that makes lease
// re-offers after worker churn safe.
type LeaseResult struct {
	// Shard echoes the lease's shard index.
	Shard int
	// Round echoes the lease's merge round.
	Round int
	// Outcomes are the batch's iteration feedback in execution order.
	Outcomes []OutcomeWire
}

// ExecuteLease runs one shard-batch lease to completion on e and returns
// its result and the corpus holding to pass with the campaign's next lease.
// It is a pure function of (shape, lanes, lease, held prefix): it builds the
// shard's state with the lease's RNG cursor replayed and the merged corpus
// installed — held's prefix extended by the seeds the lease carries —
// exactly the state the local engine rebuilds after a failed attempt, and
// drains the batch through the same runBatch loop the local engine uses. A
// lease whose corpus prefix is not the empty one or held's, or whose seeds
// do not hash to its corpus digest, is rejected. e may have run anything
// before (executors reset before every execution), so one executor serves
// any number of leases, and executing the same lease twice returns equal
// results: a lease lost to worker churn can simply be re-offered.
//
// lanes is the evaluator batch width (Options.Lanes), an operational knob
// that may differ per worker without changing any result: the batch loop's
// RNG order depends on the executor's group width, never on lanes.
func ExecuteLease(e Executor, shape Shape, lanes int, l *Lease, held *HeldCorpus) (*LeaseResult, *HeldCorpus, error) {
	w, outs, next, err := executeLease(e, shape, lanes, l, held)
	if err != nil {
		return nil, nil, err
	}
	res := leaseResult(l, outs)
	next.shards.put(w)
	return res, next, nil
}

// leaseResult copies the feedback of a lease's outcome slots into its
// result, which shares no storage with the slots. The copies come from
// slabs sized to the whole batch, one array per kind of list, so a result
// costs a few allocations whatever its size.
func leaseResult(l *Lease, outs []outcome) *LeaseResult {
	var nTrig, nIntvl, nFound, nAff, nDiff int
	for i := range outs {
		o := &outs[i]
		nTrig += len(o.triggered)
		nIntvl += len(o.intvls)
		if o.found {
			nFound++
			nAff += len(o.finding.Affected)
			nDiff += len(o.finding.StateDiffs)
		}
	}
	trig := slab[int]{free: make([]int, nTrig)}
	k := keeper{
		intvls:   slab[PointIntvl]{free: make([]PointIntvl, nIntvl)},
		findings: slab[detect.Finding]{free: make([]detect.Finding, nFound)},
		affected: slab[detect.Affected]{free: make([]detect.Affected, nAff)},
		diffs:    slab[detect.StateDiff]{free: make([]detect.StateDiff, nDiff)},
	}
	res := &LeaseResult{Shard: l.Shard, Round: l.Round, Outcomes: make([]OutcomeWire, len(outs))}
	for i := range outs {
		o := &outs[i]
		ow := &res.Outcomes[i]
		ow.Triggered, ow.Cycles, ow.Intvls = trig.copyOf(o.triggered), o.cycles, k.intvls.copyOf(o.intvls)
		if o.found {
			ow.Finding = k.finding(&o.finding)
		}
	}
	return res
}

// executeLease is ExecuteLease before the result copy: it returns the
// shard worker as the batch left it, whose slots outs are, and which the
// caller puts back into the holding's cache once it is done with them.
func executeLease(e Executor, shape Shape, lanes int, l *Lease, held *HeldCorpus) (*worker, []outcome, *HeldCorpus, error) {
	if l.Shard < 0 || l.Shard >= shape.Workers {
		return nil, nil, nil, fmt.Errorf("fuzz: lease shard %d out of range (campaign has %d workers)", l.Shard, shape.Workers)
	}
	if l.N < 1 || l.N > shape.BatchSize {
		return nil, nil, nil, fmt.Errorf("fuzz: lease batch of %d iterations outside [1, %d]", l.N, shape.BatchSize)
	}
	next, err := held.extend(l)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("fuzz: lease corpus: %w", err)
	}
	opt := shape.Options()
	opt.Lanes = lanes
	// The seed list is capped, so the batch's first retained seed copies
	// it rather than appending to the holding's.
	corpus := &Corpus{seeds: slices.Clip(next.seeds), best: l.Corpus.Best}
	w := newShardWorker(l.Shard, opt, l.Cursor, corpus, next.shards)
	w.forceIntvls = true
	outs := w.slotsFor(l.N)
	w.runBatch(e, outs, groupWidth(e), l.Round)
	return w, outs, next, nil
}

// shardReport is one shard's resolution of the open round: the batch it
// executed (outcomes, retained seeds, post-batch RNG cursor) or its
// abandonment. fails lists the round's failed attempts in order (fail
// appends them) — the reasons of an abandonment, or the attempts a local
// batch recovered from, which closeRound reports as batch_retried.
type shardReport struct {
	resolved  bool
	abandoned bool
	outs      []outcome
	seeds     []*Seed
	cursor    uint64
	fails     []string
}

// LeaseCoordinator is the one owner of a parallel campaign's state — the
// per-shard budgets and RNG cursors, the merged corpus, the stats
// accumulator — of its round barrier, and of the retry policy
// (docs/ARCHITECTURE.md). Two drivers advance it: the campaign service
// (docs/SERVICE.md) hands out one shard batch at a time as a Lease, which
// any process executes with ExecuteLease and reports back as a LeaseResult;
// RunParallelExec drives it in-process, without a wire encoding. Both close
// every round through the same closeRound, and record failed attempts
// through the same fail, so a distributed campaign over a fixed (Seed,
// Workers, BatchSize) matches a local run byte for byte
// (TestLeaseCoordinatorMatchesRunParallel; the service tests extend it
// across HTTP).
//
// Each merge round, every shard with remaining budget is open for exactly
// one batch; once every open shard has reported or been abandoned, the round
// closes: closeRound does the budget accounting, corpus merge, stats fold
// and event emission in canonical worker order, on the caller's goroutine.
//
// The coordinator is not safe for concurrent use; callers (the campaign
// service's controller, the local engine's main goroutine) serialize
// access.
type LeaseCoordinator struct {
	opt     Options
	dut     string // netlist name, for checkpoints and campaign_start
	workers int
	batch   int
	width   int      // the campaign executor's group width, for replay
	rem     []int    // remaining iterations per shard
	cursors []uint64 // RNG draw count per shard, as of the last barrier
	left    int      // total remaining iterations
	round   int      // merge rounds completed

	acc    *statsAccum
	global *Corpus
	// wires and digests follow the append-only global corpus lazily
	// (syncWires): wires[k] is seed k in wire form, marshalled once, and
	// digests[k] the digest chain over the first k seeds.
	wires   []SeedWire
	digests []string
	// shards keeps each shard's replay worker — its RNG source at the
	// cursor its last replay left, which is where the shard's next batch
	// starts, and its outcome slots, which the open round's report holds
	// until the barrier folds it.
	shards shardCache

	reports []shardReport // open round, per shard; reset at each barrier
	// finished is set by the round close that drains the last budget,
	// which also emits campaign_end.
	finished bool
}

// newLeaseCoordinator assembles a coordinator over restored or fresh state
// for a campaign run on executors like d.
func newLeaseCoordinator(d Executor, opt Options, dut string, rem []int, cursors []uint64, acc *statsAccum, global *Corpus) *LeaseCoordinator {
	workers, batch := normalizeParallel(opt)
	left := 0
	for _, r := range rem {
		left += r
	}
	return &LeaseCoordinator{
		opt: opt, dut: dut, workers: workers, batch: batch, width: groupWidth(d),
		rem: rem, cursors: cursors, left: left,
		acc: acc, global: global,
		digests: []string{""},
		reports: make([]shardReport, workers),
	}
}

// NewLeaseCoordinator opens a campaign: it splits opt's iteration budget
// into static shards — worker w owns iterations w, w+workers, ... — and
// emits the campaign_start event through opt.Observer. d is one executor
// instance of the campaign (a behavioral *DUT or a netlist LaneDUT); it
// backs the stats fold (point analysis) and is never executed by the
// coordinator: its group width fixes the batch loop a reported lease is
// replayed through (Report).
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
	lc := newLeaseCoordinator(d, opt, an.Netlist.Name(), rem, make([]uint64, workers), newStatsAccum(an, opt), NewCorpus())
	observeCompile(opt.Observer, d)
	opt.Observer.CampaignStart(lc.dut, opt.Iterations, workers, batch, opt.Seed)
	if lc.left == 0 {
		lc.finish()
	}
	return lc
}

// ResumeLeaseCoordinator reopens a campaign from a checkpoint on executor
// d, whose analysis names the checkpoint's findings and backs the stats
// fold, and whose group width fixes the replay as in NewLeaseCoordinator. opt must describe the same campaign shape as the checkpoint; the
// resumed coordinator's remaining rounds — Stats and event stream included
// — are identical to the uninterrupted campaign's.
func ResumeLeaseCoordinator(d Executor, opt Options, cp *Checkpoint) (*LeaseCoordinator, error) {
	lc, err := restoreLeaseCoordinator(d, opt, cp)
	if err != nil {
		return nil, err
	}
	lc.resume(d, cp)
	return lc, nil
}

// restoreLeaseCoordinator rebuilds a checkpoint's campaign state over d's
// analysis without emitting anything; resume then reopens it.
func restoreLeaseCoordinator(d Executor, opt Options, cp *Checkpoint) (*LeaseCoordinator, error) {
	if err := cp.validate(); err != nil {
		return nil, err
	}
	if got, want := shapeOf(opt), cp.Shape; got != want {
		return nil, fmt.Errorf("fuzz: resume shape mismatch: options %+v vs checkpoint %+v", got, want)
	}
	an := d.ContentionAnalysis()
	if err := cp.checkIntvls(len(an.Points)); err != nil {
		return nil, err
	}
	acc, err := cp.accum(an, opt)
	if err != nil {
		return nil, err
	}
	global, err := cp.Corpus.corpus()
	if err != nil {
		return nil, fmt.Errorf("fuzz: checkpoint %w", err)
	}
	lc := newLeaseCoordinator(d, opt, cp.DUT, append([]int(nil), cp.Rem...), append([]uint64(nil), cp.Cursors...), acc, global)
	lc.round = cp.Round
	return lc, nil
}

// resume reports the compile statistics of the executor that will run the
// campaign (nil when no shard has budget left), emits campaign_resumed,
// and finalizes a campaign the checkpoint leaves with nothing to execute.
// A complete checkpoint's campaign_end was already emitted by the original
// run.
func (lc *LeaseCoordinator) resume(d Executor, cp *Checkpoint) {
	if d != nil {
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
// included) — what lease executors pass to ExecuteLease.
func (lc *LeaseCoordinator) Shape() Shape { return shapeOf(lc.opt) }

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

// checkOpen rejects a shard index out of range or without an open batch
// this round.
func (lc *LeaseCoordinator) checkOpen(shard int) error {
	if shard < 0 || shard >= lc.workers {
		return fmt.Errorf("fuzz: shard %d out of range (campaign has %d workers)", shard, lc.workers)
	}
	if !lc.openShard(shard) {
		return fmt.Errorf("fuzz: shard %d has no open lease this round", shard)
	}
	return nil
}

// Failures returns how many attempts at shard's batch have failed this
// round; the service numbers its leases from it.
func (lc *LeaseCoordinator) Failures(shard int) int { return len(lc.reports[shard].fails) }

// batchSize is the iteration count of shard i's batch this round.
func (lc *LeaseCoordinator) batchSize(i int) int {
	return min(lc.rem[i], lc.batch)
}

// Lease builds the work assignment for an open shard of the current round,
// for an executor holding the corpus prefix have (HeldCorpus.Ref). When have
// names a prefix of the merged corpus — its length in range and its digest
// on the corpus's digest chain — the lease carries only the seeds after it;
// any other ref, the zero one included, gets the whole corpus. The same
// lease may be built (and executed) any number of times — results are
// deterministic — which is how the service re-offers leases lost to worker
// churn.
func (lc *LeaseCoordinator) Lease(shard int, have CorpusRef) (*Lease, error) {
	if err := lc.checkOpen(shard); err != nil {
		return nil, err
	}
	lc.syncWires()
	var from CorpusRef
	if have.Len > 0 && have.Len < len(lc.digests) && lc.digests[have.Len] == have.Digest {
		from = have
	}
	return &Lease{
		Shard:        shard,
		Round:        lc.round + 1,
		N:            lc.batchSize(shard),
		Cursor:       lc.cursors[shard],
		CorpusFrom:   from,
		CorpusDigest: lc.digests[len(lc.wires)],
		Corpus:       lc.corpusWire(from.Len),
	}, nil
}

// syncWires extends the wire and digest caches over seeds merged since the
// last call.
func (lc *LeaseCoordinator) syncWires() {
	for k := len(lc.wires); k < lc.global.Len(); k++ {
		sw := wireSeed(lc.global.seeds[k])
		lc.wires = append(lc.wires, sw)
		lc.digests = append(lc.digests, chainDigest(lc.digests[k], &sw))
	}
}

// corpusWire returns the merged corpus in wire form without its first from
// seeds. The seed list is the caller's own; its entries share their
// interval vectors with the cache, and Best is the global corpus's own
// vector, which a fold replaces rather than writes: all are read-only.
func (lc *LeaseCoordinator) corpusWire(from int) CorpusWire {
	lc.syncWires()
	seeds := make([]SeedWire, len(lc.wires)-from)
	copy(seeds, lc.wires[from:])
	return CorpusWire{Seeds: seeds, Best: lc.global.best}
}

// Report folds one executed lease's result in. The result must belong to an
// open shard of the current round, carry exactly the leased batch size,
// report no negative cycle count, and name only contention points of the
// campaign's analysis; a malformed or stale result is rejected without
// touching campaign state. An accepted result is replayed (replay): the
// coordinator draws the batch's testcases itself and feeds each its
// reported feedback, so only feedback is the worker's word. Failures
// recorded for the shard this round are dropped: service churn a re-offer
// recovered from stays metrics-only. When the last open shard of the round
// resolves, the round barrier closes: seeds merge into the global corpus in
// canonical worker order, outcomes fold into Stats, and the round's events
// are emitted.
func (lc *LeaseCoordinator) Report(res *LeaseResult) error {
	if res == nil {
		return fmt.Errorf("fuzz: nil lease result")
	}
	if res.Round != lc.round+1 {
		return fmt.Errorf("fuzz: lease result for round %d, campaign is at round %d", res.Round, lc.round+1)
	}
	if err := lc.checkOpen(res.Shard); err != nil {
		return err
	}
	n := lc.batchSize(res.Shard)
	if len(res.Outcomes) != n {
		return fmt.Errorf("fuzz: lease result carries %d outcomes, lease was for %d", len(res.Outcomes), n)
	}
	points := len(lc.acc.st.Analysis.Points)
	for i := range res.Outcomes {
		if err := checkOutcome(points, &res.Outcomes[i]); err != nil {
			return fmt.Errorf("fuzz: lease result outcome %d: %w", i, err)
		}
	}
	lc.reports[res.Shard] = lc.replay(res.Shard, res.Outcomes)
	lc.maybeCloseRound()
	return nil
}

// replay rebuilds open shard's batch from its reported feedback, exactly as
// the worker that executed the lease built it: the shard's worker at the
// shard's cursor over the merged corpus takes the feedback into its slots
// and runs the batch loop with the coordinator's group width and outcomes
// in place of executions. That yields the batch's testcases (into the
// slots), retained seeds, and post-batch cursor. The replay fires no
// FaultHook; its retention decisions count in the Observer's mutation
// metrics.
func (lc *LeaseCoordinator) replay(shard int, feedback []OutcomeWire) shardReport {
	opt := lc.opt
	opt.FaultHook = nil
	w := newShardWorker(shard, opt, lc.cursors[shard], lc.global.view(), &lc.shards)
	outs := w.slotsFor(len(feedback))
	for i := range feedback {
		feedback[i].into(&outs[i])
	}
	w.runBatch(nil, outs, lc.width, lc.round+1)
	rep := shardReport{resolved: true, outs: outs, seeds: w.takeNewSeeds(), cursor: w.src.cursor()}
	lc.shards.put(w)
	return rep
}

// checkOutcome rejects a negative cycle count, contention point IDs
// outside [0, points) anywhere in a wire outcome, an interval vector whose
// points do not ascend strictly, and state diffs no comparison produces
// (detect.StateDiff.Check).
func checkOutcome(points int, ow *OutcomeWire) error {
	if ow.Cycles < 0 {
		return fmt.Errorf("negative cycle count %d", ow.Cycles)
	}
	if ow.Finding != nil {
		for i := range ow.Finding.StateDiffs {
			sd := &ow.Finding.StateDiffs[i]
			if sd.PointID < 0 || sd.PointID >= points {
				return fmt.Errorf("state-diff point %d out of range [0, %d)", sd.PointID, points)
			}
			if err := sd.Check(); err != nil {
				return fmt.Errorf("state diff %d: %w", i, err)
			}
		}
	}
	for _, id := range ow.Triggered {
		if id < 0 || id >= points {
			return fmt.Errorf("point %d out of range [0, %d)", id, points)
		}
	}
	return checkIntvls(ow.Intvls, points)
}

// Fail records a failed attempt — for the service, an expired lease — at an
// open shard's batch (see fail). It reports whether that abandoned the
// shard, and then closes the round if no shard is left open.
func (lc *LeaseCoordinator) Fail(shard int, reason string) (abandoned bool, err error) {
	if err := lc.checkOpen(shard); err != nil {
		return false, err
	}
	if !lc.fail(shard, reason) {
		return false, nil
	}
	lc.maybeCloseRound()
	return true, nil
}

// fail is the retry policy of both drivers: it records a failed attempt at
// open shard i's batch and, once batchRetries retries have failed too,
// abandons the shard, reporting so. closeRound drops an abandoned shard's
// budget and emits one worker_failed per failed attempt, then the
// abandonment disposition. The local engine calls fail directly: its
// round closes on the main loop's schedule.
func (lc *LeaseCoordinator) fail(i int, reason string) bool {
	rep := &lc.reports[i]
	rep.fails = append(rep.fails, reason)
	if len(rep.fails) <= batchRetries {
		return false
	}
	rep.resolved, rep.abandoned = true, true
	return true
}

// maybeCloseRound closes the round once no shard is still open.
func (lc *LeaseCoordinator) maybeCloseRound() {
	for i := 0; i < lc.workers; i++ {
		if lc.openShard(i) {
			return
		}
	}
	lc.closeRound()
}

// closeRound closes the open round at its barrier, in canonical worker
// order and in the order every driver's event stream pins: per shard, each
// failed attempt as worker_failed, then the disposition — an abandonment,
// whose whole remaining budget is dropped, or batch_retried for a recovered
// batch — then the budget accounting, RNG cursor advance and seed re-offers
// to the global corpus (re-offering drops seeds another shard has already
// beaten); the per-outcome stats fold in worker order; batch_merged with the
// merged corpus size; and campaign_end when the round drained the campaign.
// It reports whether any seed was offered — that is, whether shard corpora
// may now differ from the global corpus.
func (lc *LeaseCoordinator) closeRound() (reoffered bool) {
	start := time.Now() //sonar:nondeterministic-ok merge duration feeds a BatchMerged metric, not canonical output
	lc.round++
	o := lc.opt.Observer
	merged := 0
	for i := range lc.reports {
		rep := &lc.reports[i]
		for a, reason := range rep.fails {
			o.WorkerFailed(i, lc.round, a+1, reason)
		}
		switch {
		case rep.abandoned:
			o.WorkerFailed(i, lc.round, abandonAttempt,
				fmt.Sprintf("shard abandoned after %d failed attempts; %d iterations dropped", len(rep.fails), lc.rem[i]))
			lc.left -= lc.rem[i]
			lc.rem[i] = 0
		case rep.resolved:
			if len(rep.fails) > 0 {
				o.BatchRetried(i, lc.round, len(rep.fails)+1)
			}
			n := len(rep.outs)
			merged += n
			lc.rem[i] -= n
			lc.left -= n
			lc.cursors[i] = rep.cursor
			for _, s := range rep.seeds {
				lc.global.Offer(s)
				reoffered = true
			}
		}
	}
	for i := range lc.reports {
		outs := lc.reports[i].outs
		for j := range outs {
			lc.acc.apply(&outs[j])
		}
		lc.reports[i] = shardReport{}
	}
	o.BatchMerged(lc.round, merged, lc.global.Len(), time.Since(start)) //sonar:nondeterministic-ok operator-facing duration metric only
	if lc.left == 0 {
		lc.finish()
	}
	return reoffered
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
// re-execute (deterministically) — so a snapshot may be taken between any
// two calls.
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
		Corpus:   lc.corpusWire(0),
	}
	cp.Stats.CorpusSize = lc.global.Len()
	cp.Stats.Best = lc.acc.best
	return cp
}
