package fuzz

import (
	"math/rand"
	"slices"
	"time"

	"sonar/internal/detect"
	"sonar/internal/hdl"
	"sonar/internal/monitor"
	"sonar/internal/obs"
	"sonar/internal/trace"
)

// Options configures a fuzzing campaign. The three strategy switches map to
// the paper's breakdown experiment (Figure 10): retention ⊂ selection ⊂
// directed mutation; with all three off the campaign degenerates to the
// random-testing baseline of Figure 8.
type Options struct {
	// Iterations is the number of testcases to execute.
	Iterations int
	// Seed seeds the campaign's RNG; equal seeds give equal campaigns.
	Seed int64
	// Retention keeps interval-reducing testcases in the corpus (§6.2.1 ①).
	Retention bool
	// Selection prioritizes seeds closest to triggering (§6.2.1 ②);
	// implies Retention.
	Selection bool
	// DirectedMutation applies the adaptive interval-guided chain mutation
	// (§6.2.1 ③); implies Selection.
	DirectedMutation bool
	// DualCore also generates attacker programs for the second core
	// (template Figure 4b). Requires a two-core DUT.
	DualCore bool
	// SecretA and SecretB are the two secret values each testcase runs
	// under.
	SecretA, SecretB uint64
	// KeepFindings caps the retained finding list (0 = keep all).
	KeepFindings int
	// RandomDirection disables the adaptive direction memory of the
	// directed mutation: each retained seed gets a random direction
	// instead of inheriting/flipping based on the previous mutation's
	// effect — the ablation of §6.2.1's "adaptive directed mutation".
	RandomDirection bool
	// Workers is the number of campaign shards (0 = 1); RunParallelExec
	// runs them on min(Workers, GOMAXPROCS) executors.
	Workers int
	// BatchSize is the number of iterations each worker executes between
	// two corpus merges in RunParallelExec (0 = a sensible default). Smaller
	// batches tighten the feedback loop; larger ones reduce
	// synchronization overhead.
	BatchSize int
	// Lanes is the evaluator batch width: how many testcases (two per
	// pair) a netlist-backed executor evaluates bit-parallel in one lane
	// pass. 0, the default, and any value outside [1, hdl.Lanes] mean
	// hdl.Lanes: the executor's whole group in one pass. Netlist-evaluation
	// backends (sim.LaneSimulator with monitor.LaneBank) run every
	// execution as a lane pass, one testcase per bit of every plane word;
	// the behavioral DUT models (boom/nutshell direct-drive) cannot be
	// bit-sliced, ignore the width, and execute testcases one at a time in
	// ascending order — the campaign-level analog of the lane evaluator's
	// prim scalar spill (docs/SIMULATOR.md). Demuxed outcomes are folded in
	// canonical lane order either way, so Stats, PerIteration, checkpoints,
	// and the event stream are byte-identical for a fixed (Seed, Workers,
	// BatchSize) across every Lanes setting — the contract TestLaneMatrix
	// pins. Lanes is therefore an operational knob, not part of the
	// checkpoint Shape.
	Lanes int
	// Observer receives campaign metrics and structured events (package
	// obs). nil disables observability at near-zero hot-path cost. Events
	// are emitted only as the coordinator closes a merge round, on the
	// goroutine driving the campaign, in canonical iteration order —
	// executor goroutines touch atomic metrics only — so
	// attaching an Observer never perturbs the campaign itself, and the
	// event stream of a parallel campaign is byte-identical across runs
	// for a fixed (Seed, Workers, BatchSize).
	Observer *obs.Observer

	// The remaining fields form the durability surface of the campaign
	// engine (docs/CAMPAIGNS.md).

	// Checkpoint, when non-empty, is the file periodic campaign snapshots
	// are written to (atomically, via temp-file+rename) at batch-merge
	// barriers. A checkpoint restores through Resume into a campaign
	// bit-identical to an uninterrupted run for the same (Seed, Workers,
	// BatchSize).
	Checkpoint string
	// CheckpointEvery is the iteration period between checkpoints
	// (0 = defaultCheckpointEvery). Checkpoints are cut at the first merge
	// barrier at or past each multiple; a final checkpoint always marks
	// campaign completion.
	CheckpointEvery int
	// MaxRounds, when positive, pauses the campaign after that many merge
	// rounds of this run: a checkpoint is written (when Checkpoint is set)
	// and the partial Stats are returned without a campaign_end event, so
	// a later Resume byte-continues the event stream. Time-sliced
	// campaigns on shared hosts are the intended use.
	MaxRounds int
	// IterTimeout is the per-iteration deadline of campaign batches; a
	// batch of n iterations is given up n*IterTimeout after an executor
	// receives it and re-queued, recovering campaigns from wedged
	// simulations. 0 disables the deadline (panics are still recovered).
	IterTimeout time.Duration
	// FaultHook, when non-nil, is invoked by campaign workers before every
	// iteration — the seam the deterministic fault-injection harness
	// (package faultinject) uses to schedule worker panics and stalls.
	// Production campaigns leave it nil.
	FaultHook FaultHook
}

// FaultHook is the fault-injection seam of the campaign engine: workers
// call BeforeIteration(worker, round, iter) before each iteration of a
// batch, from the worker goroutine. Implementations may panic or block to
// exercise the engine's recovery paths; package faultinject provides
// deterministic schedules. Implementations must be safe for concurrent use.
type FaultHook interface {
	// BeforeIteration is called with the worker index, the 1-based merge
	// round, and the 0-based iteration index within the current batch.
	BeforeIteration(worker, round, iter int)
}

// SonarOptions returns the full Sonar strategy set.
func SonarOptions(iterations int) Options {
	return Options{
		Iterations: iterations, Seed: 1,
		Retention: true, Selection: true, DirectedMutation: true,
		SecretA: 0, SecretB: 1,
	}
}

// RandomOptions returns the unguided random-testing baseline ("Sonar
// without any guidance", Figure 8).
func RandomOptions(iterations int) Options {
	return Options{Iterations: iterations, Seed: 1, SecretA: 0, SecretB: 1}
}

// IterStats is the cumulative progress after one iteration, the series
// plotted in Figures 8, 10 and 11.
type IterStats struct {
	// Iteration is 1-based.
	Iteration int
	// NewPoints is the number of contention points newly triggered by this
	// testcase.
	NewPoints int
	// CumPoints is the cumulative number of distinct triggered points.
	CumPoints int
	// CumTimingDiffs is the cumulative number of testcases exposing a
	// secret-dependent timing difference.
	CumTimingDiffs int
}

// Stats is the result of a campaign.
type Stats struct {
	// PerIteration is the progress series, indexed by the campaign's
	// canonical iteration order: the round barrier's fold order (each round
	// folds workers in worker order), which is NOT wall-clock completion
	// order — worker w's k-th batch entry occupies the same slot on every
	// run. len(PerIteration) == Options.Iterations
	// (TestPerIterationLengthMatchesIterations pins this).
	PerIteration []IterStats
	// Findings are the detected side channels (dual-differential verified),
	// in compact form; Wire and Finding.String name their points from
	// Analysis.
	Findings []*detect.Finding
	// FindingSeeds are the testcases that exposed each retained finding
	// (parallel to Findings); export them with Testcase.Marshal.
	FindingSeeds []*Testcase
	// TriggeredPoints is the final set of triggered contention point IDs.
	TriggeredPoints map[int]bool
	// SingleValidTriggered counts points triggered within the first 20
	// testcases whose requests are dominated by a single valid signal
	// (paper Figure 9); EarlyTriggered is the total in that window.
	SingleValidTriggered int
	// EarlyTriggered is the total number of points triggered within the
	// first 20 testcases (the Figure 9 window).
	EarlyTriggered int
	// EarlyBreakdown records, for each of the first 20 testcases, how many
	// newly triggered points were single-valid dominated vs not (the bars
	// of paper Figure 9).
	EarlyBreakdown [][2]int
	// CorpusSize is the final seed corpus size.
	CorpusSize int
	// ExecutedCycles is the total simulated cycle count.
	ExecutedCycles int64
	// Analysis is the contention analysis the campaign's point IDs index
	// (any executor's: point IDs are identical across a campaign's
	// executors).
	Analysis *trace.Analysis
}

// worker is one shard of a campaign: an RNG stream, a corpus view, the
// seeds retained since the last barrier and the outcome slots of its
// batches. It holds no executor, so any executor may run any shard's batch.
type worker struct {
	// id is the shard index — the value fault events and the FaultHook
	// report.
	id        int
	rng       *rand.Rand
	corpus    *Corpus
	opt       Options
	retention bool
	selection bool
	// src is the counted RNG source behind rng; its cursor is the worker's
	// serializable RNG position.
	src *countedSource
	// newSeeds are the seeds retained since the last takeNewSeeds call —
	// the delta the parallel coordinator re-offers to the global corpus.
	newSeeds []*Seed
	// mutOffered and mutAccepted batch the retention-decision metrics: the
	// batch loop counts locally and publishes one atomic update per batch
	// instead of several per iteration.
	mutOffered, mutAccepted int
	// forceIntvls makes observe populate outcome.intvls even without local
	// retention or a local Observer. Lease execution (ExecuteLease) sets it:
	// the coordinator replays retention from the reported intervals, and
	// its Observer folds them.
	forceIntvls bool
	// slots are the outcome slots of the worker's batches (slotsFor),
	// recycled across batches: a batch's outcomes are folded before the
	// worker runs its next one.
	slots []outcome
	// kept holds the retained seeds' copies (keep.go).
	kept keeper
	// pending, tcs, and pairs are the batch loop's scratch buffers,
	// recycled across groups so the hot loop stays allocation-free after
	// warmup.
	pending []pendingIter
	tcs     []*Testcase
	pairs   []ExecPair
}

// newShardWorker returns shard id's worker over corpus, its RNG a counted
// source seeded with opt.Seed+id at cursor. It is the worker cache keeps
// for that seed when its source sits at cursor, with its slots and slabs
// (a nil cache builds a new one). A cursor of zero gives the exact draw
// sequence of rand.New(rand.NewSource(opt.Seed+id)) — the determinism
// contract — and a checkpointed cursor restores the worker's mid-campaign
// RNG position.
func newShardWorker(id int, opt Options, cursor uint64, corpus *Corpus, cache *shardCache) *worker {
	w := cache.take(opt.Seed+int64(id), cursor)
	if w == nil {
		src := newCountedSource(opt.Seed+int64(id), cursor)
		w = &worker{id: id, rng: rand.New(src), src: src}
	}
	w.corpus, w.opt = corpus, opt
	w.retention = opt.Retention || opt.Selection || opt.DirectedMutation
	w.selection = opt.Selection || opt.DirectedMutation
	w.forceIntvls = false
	w.newSeeds = w.newSeeds[:0]
	return w
}

// slotsFor returns the worker's first n outcome slots, growing the slot
// list to n.
func (w *worker) slotsFor(n int) []outcome {
	w.slots = slices.Grow(w.slots[:0], n)[:n]
	return w.slots
}

// outcome is one iteration's slot: its testcase and its contribution to
// campaign statistics, in a form the coordinator can fold into Stats in
// canonical order. Everything but tc is the iteration's feedback: what a
// lease report carries.
//
// A slot is recycled across rounds: prepare writes the testcase, and
// observe the lists and the finding, into the slot's previous storage. What
// the campaign keeps is copied out (keeper), never referenced.
type outcome struct {
	tc        Testcase
	triggered []int
	// finding is the dual-differential finding when found is set; its
	// lists are the slot's storage otherwise.
	finding detect.Finding
	found   bool
	cycles  int64
	// intvls is the feedback vector of the dual execution: the per-point
	// best reqsIntvl of either run (feedback). It is populated when
	// retention needs it or an Observer is attached (the per-point
	// best-interval metrics), and empty otherwise.
	intvls []PointIntvl
}

// pendingIter is the selection context of one prepared-but-not-executed
// iteration, which its feedback needs. It separates the RNG draws of
// generation (prepare) from those of feedback (feed), so a whole group can
// execute between the two.
type pendingIter struct {
	parent *Seed
	target int
}

// prepare draws one iteration's testcase into tc: generate, or
// select-and-mutate from the corpus. All generation-side RNG draws happen
// here.
//
//sonar:alloc-free
func (w *worker) prepare(tc *Testcase) pendingIter {
	p := pendingIter{target: -1}
	if w.retention && w.corpus.Len() > 0 && w.rng.Float64() < 0.7 {
		p.parent, p.target = w.corpus.Select(w.rng, w.selection)
		if w.opt.DirectedMutation {
			tc.mutateDirected(p.parent, w.rng)
		} else {
			tc.mutateRandom(p.parent, w.rng)
		}
	} else {
		tc.generate(w.rng, w.opt.DualCore)
	}
	return p
}

// groupWidth is the number of iterations e executes at once: GroupWidth for
// a GroupExecutor of width above 1, else 1.
func groupWidth(e Executor) int {
	if g, ok := e.(GroupExecutor); ok && g.GroupWidth() > 1 {
		return g.GroupWidth()
	}
	return 1
}

// runBatch is the one batch loop. It fills the slots outs with len(outs)
// iterations of merge round `round`, a group of width iterations at a
// time: prepare every iteration of the group, take the group's outcomes,
// then feed each back, in iteration order each time. The RNG draw order,
// [prepare 0..G-1][feed 0..G-1] per group, is therefore a pure function of
// the group width, and a group never feeds back into itself — the
// visibility a merge-barrier batch boundary gives the shards.
//
// With e set, e executes each group (execute) and width is groupWidth(e).
// With e nil, outs already holds every iteration's feedback — a reported
// lease — and the loop only rebuilds what follows from it: the testcases,
// the retained seeds, and the post-batch RNG cursor (LeaseCoordinator.replay).
//
// The FaultHook seam fires before each iteration, from the running
// goroutine, so a scheduled panic or stall surfaces exactly where a real
// executor fault would.
func (w *worker) runBatch(e Executor, outs []outcome, width, round int) {
	for base := 0; base < len(outs); base += width {
		group := outs[base:min(base+width, len(outs))]
		w.pending = w.pending[:0]
		for i := range group {
			if h := w.opt.FaultHook; h != nil {
				h.BeforeIteration(w.id, round, base+i)
			}
			w.pending = append(w.pending, w.prepare(&group[i].tc))
		}
		if e != nil {
			w.execute(e, group)
		}
		for i := range group {
			w.feed(w.pending[i], &group[i])
		}
	}
	w.opt.Observer.MutationsOffered(w.mutOffered, w.mutAccepted)
	w.mutOffered, w.mutAccepted = 0, 0
}

// execute runs the prepared group's testcases on e under both secrets and
// observes each iteration into its slot. A GroupExecutor runs the group in
// one ExecuteGroup call; a behavioral DUT, which cannot be bit-sliced, runs
// it through the scalar path, so the outcomes are the same at every
// Options.Lanes setting (TestLaneMatrix, TestNetlistLaneMatrix).
func (w *worker) execute(e Executor, group []outcome) {
	if g, ok := e.(GroupExecutor); ok && g.GroupWidth() > 1 {
		w.tcs = w.tcs[:0]
		for i := range group {
			w.tcs = append(w.tcs, &group[i].tc)
		}
		w.pairs = g.ExecuteGroup(w.tcs, w.opt.SecretA, w.opt.SecretB, w.opt.LaneWidth(), w.pairs[:0])
		for i, pr := range w.pairs {
			w.observe(pr.A, pr.B, &group[i])
		}
		return
	}
	for i := range group {
		o := &group[i]
		exA := e.Execute(&o.tc, w.opt.SecretA)
		exB := e.Execute(&o.tc, w.opt.SecretB)
		w.observe(exA, exB, o)
	}
}

// observe fills slot o with the feedback of one dual execution of its
// testcase: the points it triggered, its finding, its cycles and, when
// needed, its merged intervals, each written over the slot's previous
// storage. It draws no RNG value.
//
//sonar:alloc-free
func (w *worker) observe(exA, exB *Execution, o *outcome) {
	// Contention coverage: points triggered in either run, in execution
	// order (the accumulator deduplicates against the global set).
	o.triggered = exB.Snap.AppendTriggered(exA.Snap.AppendTriggered(o.triggered[:0]))
	o.found = analyzeExecutions(&o.finding, &o.tc, exA, exB)
	o.cycles = exA.Cycles + exB.Cycles
	o.intvls = o.intvls[:0]
	if w.retention || w.forceIntvls || w.opt.Observer != nil {
		o.intvls = feedback(o.intvls, exA.Snap, exB.Snap)
	}
}

// feedback merges the distinct-request intervals of one dual execution into
// its feedback vector, written over dst's storage when that can hold both
// runs' active points, and returns it, never nil: per point, the smaller
// interval of the two runs, leaving out points neither run observed an
// interval at. It is one merge walk over the two snapshots' active lists,
// which ascend by point.
//
//sonar:alloc-free
func feedback(dst []PointIntvl, a, b *monitor.Snapshot) []PointIntvl {
	ia, ib := a.Active(), b.Active()
	out := dst[:0]
	if dst == nil || cap(dst) < len(ia)+len(ib) {
		out = make([]PointIntvl, 0, len(ia)+len(ib))
	}
	for len(ia) > 0 || len(ib) > 0 {
		var pa, pb *monitor.PointSnapshot // the next entries of a and b
		if len(ia) > 0 {
			pa = &a.Points[ia[0]]
		}
		if len(ib) > 0 {
			pb = &b.Points[ib[0]]
		}
		p, v := pa, monitor.NoInterval
		if pb != nil && (pa == nil || pb.Point.ID <= pa.Point.ID) {
			p, v, ib = pb, pb.MinIntvlDistinct, ib[1:]
		}
		if pa != nil && pa.Point.ID == p.Point.ID {
			v, ia = min(v, pa.MinIntvlDistinct), ia[1:]
		}
		if v != monitor.NoInterval {
			out = append(out, PointIntvl{Point: p.Point.ID, Intvl: v})
		}
	}
	return out
}

// feed feeds slot o's feedback back into the corpus: retention plus the
// adaptive direction update. A retained seed is a copy of the slot's
// testcase and vector in the worker's slabs. All feedback-side RNG draws
// happen here, and they read nothing of o but its intervals.
func (w *worker) feed(p pendingIter, o *outcome) {
	if !w.retention {
		return
	}
	// Only the distinct-request interval (the volatile-contention approach
	// metric, §6.2.1) feeds the corpus; same-path progress is driven by the
	// data-similarity mutation instead (§6.2.2), which proved more effective
	// than steering selection by same-path intervals.
	parent, target := p.parent, p.target
	dir := +1
	switch {
	case w.opt.RandomDirection:
		dir = 1 - 2*w.rng.Intn(2) // ablation: no direction memory
	case parent != nil:
		dir = parent.Dir
		if target >= 0 {
			oldV, okOld := intvlAt(parent.Intvls, target)
			newV, okNew := intvlAt(o.intvls, target)
			switch {
			case okNew && okOld && newV < oldV:
				// Improvement: keep direction.
			case okNew && !okOld:
				// First observation counts as progress.
			default:
				dir = -dir // no improvement: flip (adaptive, §6.2.1)
			}
		}
	default:
		// Fresh testcase: unbiased initial direction. A fixed +1 would
		// permanently skew the adaptive strategy toward chain growth;
		// §6.2.1 relies on both directions being explored.
		dir = 1 - 2*w.rng.Intn(2)
	}
	w.mutOffered++
	if best, improved := foldMin(w.corpus.best, o.intvls); improved {
		s := w.kept.seed(&o.tc, o.intvls, dir, target)
		w.corpus.admit(s, best)
		w.mutAccepted++
		w.newSeeds = append(w.newSeeds, s)
	}
}

// LaneWidth resolves Lanes to the effective lane width: Lanes itself
// within [1, hdl.Lanes], else hdl.Lanes (one testcase per bit of a plane
// word, a GroupExecutor's whole group in one pass).
func (opt Options) LaneWidth() int {
	if opt.Lanes < 1 || opt.Lanes > hdl.Lanes {
		return hdl.Lanes
	}
	return opt.Lanes
}

// takeNewSeeds returns the seeds retained since the previous call and
// resets the delta. The list is the worker's own and is overwritten by its
// next batch, which starts only after the round barrier consumed it.
func (w *worker) takeNewSeeds() []*Seed {
	s := w.newSeeds
	w.newSeeds = w.newSeeds[:0]
	return s
}

// analyzeExecutions runs dual-differential detection on one double
// execution into f and reports whether it found a side channel: the
// victim's commit logs first and, only when the testcase actually carried
// an attacker program, the attacker core's logs. Guarding on the testcase
// (not just Options.DualCore) keeps attacker-less testcases in a dual-core
// campaign from feeding empty commit logs into detection.
//
//sonar:alloc-free
func analyzeExecutions(f *detect.Finding, tc *Testcase, exA, exB *Execution) bool {
	return detect.Analyze(f, exA.Log, exB.Log, exA.Snap, exB.Snap) ||
		len(tc.Attacker) > 0 && detect.Analyze(f, exA.AttackerLog, exB.AttackerLog, exA.Snap, exB.Snap)
}

// statsAccum folds per-iteration outcomes into campaign statistics in the
// round barrier's canonical order.
type statsAccum struct {
	opt Options
	st  *Stats
	obs *obs.Observer
	// best is the campaign-wide best reqsIntvl per point as a feedback
	// vector, tracked only for the observability gauges (the corpus keeps
	// its own). Like the corpus best, a fold replaces it rather than
	// writing it, so a checkpoint shares it without a copy.
	best []PointIntvl
	// kept holds the copies of the findings and finding seeds Stats keeps.
	kept keeper
}

// newStatsAccum starts an empty fold over the campaign's analysis: any
// executor's, since point IDs are identical across a campaign's executor
// instances (the Executor contract), so the accumulator never needs the
// executor itself.
func newStatsAccum(an *trace.Analysis, opt Options) *statsAccum {
	a := &statsAccum{opt: opt, st: &Stats{TriggeredPoints: make(map[int]bool), Analysis: an}, obs: opt.Observer}
	if a.obs != nil {
		a.best = []PointIntvl{}
	}
	return a
}

// apply folds one outcome slot; the global iteration index is the fold
// order. A finding Stats keeps is copied out of the slot with its testcase.
func (a *statsAccum) apply(o *outcome) {
	st := a.st
	it := len(st.PerIteration) + 1
	newPts := 0
	var early [2]int
	for _, id := range o.triggered {
		if !st.TriggeredPoints[id] {
			st.TriggeredPoints[id] = true
			newPts++
			if a.obs != nil {
				intvl := int64(-1) // same-path trigger only: no distinct pair
				if v, ok := intvlAt(o.intvls, id); ok {
					intvl = v
				}
				a.obs.PointTriggered(it, id, intvl)
			}
			if it <= 20 {
				st.EarlyTriggered++
				if singleValidDominated(st.Analysis, id) {
					st.SingleValidTriggered++
					early[0]++
				} else {
					early[1]++
				}
			}
		}
	}
	if it <= 20 {
		st.EarlyBreakdown = append(st.EarlyBreakdown, early)
	}

	cum := 0
	if len(st.PerIteration) > 0 {
		cum = st.PerIteration[len(st.PerIteration)-1].CumTimingDiffs
	}
	if o.found {
		cum++
		a.obs.TimingDiff()
		if a.opt.KeepFindings == 0 || len(st.Findings) < a.opt.KeepFindings {
			st.Findings = append(st.Findings, a.kept.finding(&o.finding))
			st.FindingSeeds = append(st.FindingSeeds, a.kept.testcase(&o.tc))
			a.obs.FindingDetected(it, len(st.Findings))
		}
	}
	st.ExecutedCycles += o.cycles
	st.PerIteration = append(st.PerIteration, IterStats{
		Iteration:      it,
		NewPoints:      newPts,
		CumPoints:      len(st.TriggeredPoints),
		CumTimingDiffs: cum,
	})
	if a.obs != nil {
		if best, improved := foldMin(a.best, o.intvls); improved {
			for _, pi := range o.intvls {
				if old, ok := intvlAt(a.best, pi.Point); !ok || pi.Intvl < old {
					a.obs.SetBestInterval(pi.Point, pi.Intvl)
				}
			}
			a.best = best
		}
		a.obs.IterationDone(it, newPts, len(st.TriggeredPoints), cum, o.cycles)
	}
}

// finish emits the campaign-closing event once the final Stats fields
// (CorpusSize) are in place.
func (a *statsAccum) finish() {
	if a.obs == nil {
		return
	}
	st := a.st
	var last IterStats
	if n := len(st.PerIteration); n > 0 {
		last = st.PerIteration[n-1]
	}
	a.obs.CampaignEnd(len(st.PerIteration), last.CumPoints, last.CumTimingDiffs,
		len(st.Findings), st.CorpusSize, st.ExecutedCycles)
}

// singleValidDominated reports whether a point's triggering is dominated by
// a single valid signal (paper Figure 9): either at most one request
// carries validity, or some request has no validity indication at all — a
// constantly-valid peer, so any single valid assertion triggers the point
// (§8.3.2 observation ①).
func singleValidDominated(an *trace.Analysis, pointID int) bool {
	p := an.Points[pointID]
	withValid := 0
	constPeer := false
	for i := range p.Requests {
		if p.Requests[i].HasValid() {
			withValid++
		} else if !p.Requests[i].Data.IsConst() {
			constPeer = true
		}
	}
	return withValid <= 1 || constPeer
}
