// Package obs is Sonar's campaign observability layer: a lightweight,
// allocation-conscious metrics registry (counters, gauges, histograms with
// Prometheus text exposition) and a structured campaign event stream
// (CampaignStart .. CampaignEnd) with pluggable sinks — a JSONL file sink,
// an in-memory sink for tests, and a live progress renderer.
//
// The two halves meet in the Observer, the hook the fuzzing engines accept
// via fuzz.Options.Observer. Its design constraints, in order:
//
//  1. A nil Observer costs ~nothing: every method is safe and a no-op on a
//     nil receiver, so the hot path pays one predictable branch.
//  2. Determinism of the merged campaign is untouched: events are emitted
//     only by the campaign coordinator, in canonical iteration order, and
//     carry no wall-clock fields — a parallel campaign's event stream is
//     byte-identical across runs for a fixed (Seed, Workers, BatchSize).
//     Worker goroutines touch only atomic metrics (never the event stream).
//  3. Metrics are cheap: atomics on the hot path, locks only at labeled-
//     series creation and exposition time.
//
// See docs/OBSERVABILITY.md for the metric and event name reference.
package obs

import (
	"errors"
	"strconv"
	"time"
)

// Standard campaign metric names (the full reference, including label
// dimensions, is docs/OBSERVABILITY.md).
const (
	MetricIterations        = "sonar_iterations_total"
	MetricIterationsPerSec  = "sonar_iterations_per_second"
	MetricTriggeredPoints   = "sonar_triggered_points"
	MetricTimingDiffs       = "sonar_timing_diffs_total"
	MetricFindings          = "sonar_findings_total"
	MetricCorpusSize        = "sonar_corpus_size"
	MetricCycles            = "sonar_cycles_total"
	MetricMutationsOffered  = "sonar_mutations_offered_total"
	MetricMutationsAccepted = "sonar_mutations_accepted_total"
	MetricMutationAccept    = "sonar_mutation_accept_rate"
	MetricWorkerIterations  = "sonar_worker_iterations_total"
	MetricWorkerBusy        = "sonar_worker_busy_seconds_total"
	MetricBestInterval      = "sonar_point_best_interval"
	MetricMergeLatency      = "sonar_batch_merge_seconds"
	MetricNaiveMuxes        = "sonar_dut_naive_muxes"
	MetricTracedPoints      = "sonar_dut_traced_points"
	MetricMonitoredPoints   = "sonar_dut_monitored_points"
	MetricDUTInfo           = "sonar_dut_info"
	MetricSimSpilled        = "sonar_sim_spilled_nodes"
	MetricSimEliminated     = "sonar_sim_eliminated_nodes"
	MetricWorkerFailures    = "sonar_worker_failures_total"
	MetricBatchRetries      = "sonar_batch_retries_total"
	MetricCheckpoints       = "sonar_checkpoints_total"
	MetricCheckpointLatency = "sonar_checkpoint_seconds"
	MetricCheckpointBytes   = "sonar_checkpoint_bytes"
	MetricCheckpointIter    = "sonar_checkpoint_iteration"
	MetricFlowSurface       = "sonar_flow_surface_cascades"
	MetricFlowTainted       = "sonar_flow_tainted_points"
	MetricFlowTaintPairs    = "sonar_flow_taint_pair_points"
	MetricFlowFindings      = "sonar_flow_findings"
)

// Observer publishes campaign metrics and forwards campaign events to its
// sinks. Create one with New; a nil *Observer is a valid, free-of-charge
// null implementation of every method.
//
// Event-emitting methods (CampaignStart, PointTriggered, FindingDetected,
// IterationDone, BatchMerged, CampaignEnd) must be called from a single
// goroutine at a time — the campaign coordinator does. Metric-only methods
// (MutationOffered, WorkerBatch, SetBestInterval, DUTInfo) are safe from
// worker goroutines.
type Observer struct {
	// Metrics is the registry backing the campaign metrics; callers may
	// register additional metrics on it and serve it via Metrics.Handler.
	Metrics *Metrics

	sinks []Sink
	seq   int

	campaignStart time.Time
	itersAtStart  int64

	iterations  *Counter
	ips         *Gauge
	triggered   *Gauge
	timingDiffs *Counter
	findings    *Counter
	corpus      *Gauge
	cycles      *Counter
	mutOffered  *Counter
	mutAccepted *Counter
	mutRate     *Gauge
	workerIters *CounterVec
	workerBusy  *GaugeVec
	bestIntvl   *GaugeVec
	mergeLat    *Histogram
	naiveMuxes  *Gauge
	tracedPts   *Gauge
	monitored   *Gauge
	dutInfo     *GaugeVec
	workerFails *Counter
	retries     *Counter
	ckpts       *Counter
	ckptLat     *Histogram
	ckptBytes   *Gauge
	ckptIter    *Gauge
}

// New returns an Observer with the standard campaign metrics registered
// and the given event sinks attached.
func New(sinks ...Sink) *Observer {
	m := NewMetrics()
	return &Observer{
		Metrics:     m,
		sinks:       sinks,
		iterations:  m.Counter(MetricIterations, "Fuzzing iterations executed."),
		ips:         m.Gauge(MetricIterationsPerSec, "Fuzzing iteration throughput of the current campaign."),
		triggered:   m.Gauge(MetricTriggeredPoints, "Distinct contention points triggered."),
		timingDiffs: m.Counter(MetricTimingDiffs, "Testcases exposing a secret-dependent timing difference."),
		findings:    m.Counter(MetricFindings, "Retained dual-differential findings."),
		corpus:      m.Gauge(MetricCorpusSize, "Seeds in the (merged) corpus."),
		cycles:      m.Counter(MetricCycles, "Simulated cycles executed."),
		mutOffered:  m.Counter(MetricMutationsOffered, "Testcases offered to the corpus retention rule."),
		mutAccepted: m.Counter(MetricMutationsAccepted, "Testcases retained by the corpus (interval-improving)."),
		mutRate:     m.Gauge(MetricMutationAccept, "Fraction of offered testcases retained."),
		workerIters: m.CounterVec(MetricWorkerIterations, "Iterations executed per parallel worker.", "worker"),
		workerBusy:  m.GaugeVec(MetricWorkerBusy, "Batch-execution seconds per parallel worker.", "worker"),
		bestIntvl:   m.GaugeVec(MetricBestInterval, "Best (minimum) distinct-request reqsIntvl per contention point.", "point"),
		mergeLat: m.Histogram(MetricMergeLatency, "Coordinator batch merge latency.",
			[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}),
		naiveMuxes:  m.Gauge(MetricNaiveMuxes, "2:1 MUX count before bottom-up tracing."),
		tracedPts:   m.Gauge(MetricTracedPoints, "Contention points after bottom-up tracing."),
		monitored:   m.Gauge(MetricMonitoredPoints, "Contention points surviving the risk filter."),
		dutInfo:     m.GaugeVec(MetricDUTInfo, "Constant 1, labeled with the DUT design name.", "design"),
		workerFails: m.Counter(MetricWorkerFailures, "Failed parallel batch attempts (panics, deadline aborts, abandonments)."),
		retries:     m.Counter(MetricBatchRetries, "Batches recovered by a retry after a failed attempt."),
		ckpts:       m.Counter(MetricCheckpoints, "Campaign checkpoints written."),
		ckptLat: m.Histogram(MetricCheckpointLatency, "Checkpoint serialization+write latency.",
			[]float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10}),
		ckptBytes: m.Gauge(MetricCheckpointBytes, "Size of the last checkpoint written."),
		ckptIter:  m.Gauge(MetricCheckpointIter, "Campaign iteration of the last checkpoint written."),
	}
}

// emit assigns the next sequence number and fans the event out. Callers
// are the coordinator-side event methods only.
func (o *Observer) emit(e Event) {
	o.seq++
	e.Seq = o.seq
	for _, s := range o.sinks {
		s.Emit(e)
	}
}

// CampaignStart opens a campaign. workers and batchSize are the effective
// (post-clamp) values.
func (o *Observer) CampaignStart(dut string, iterations, workers, batchSize int, seed int64) {
	if o == nil {
		return
	}
	o.campaignStart = time.Now() //sonar:nondeterministic-ok wall clock feeds the throughput gauge, never events
	o.itersAtStart = o.iterations.Value()
	o.emit(Event{
		Kind: CampaignStart, DUT: dut,
		Iterations: iterations, Workers: workers, BatchSize: batchSize, Seed: seed,
	})
}

// PointTriggered records the first trigger of a contention point. interval
// is the best distinct-request reqsIntvl the triggering testcase observed
// at the point, or -1 when only a same-path (persistent) trigger occurred.
func (o *Observer) PointTriggered(iteration, point int, interval int64) {
	if o == nil {
		return
	}
	o.emit(Event{Kind: PointTriggered, Iteration: iteration, Point: point, Interval: interval})
}

// FindingDetected records a retained dual-differential finding.
func (o *Observer) FindingDetected(iteration, findings int) {
	if o == nil {
		return
	}
	o.findings.Inc()
	o.emit(Event{Kind: FindingDetected, Iteration: iteration, Findings: findings})
}

// IterationDone closes one canonical iteration.
func (o *Observer) IterationDone(iteration, newPoints, cumPoints, cumTimingDiffs int, cycles int64) {
	if o == nil {
		return
	}
	o.iterations.Inc()
	o.triggered.Set(float64(cumPoints))
	o.cycles.Add(cycles)
	o.emit(Event{
		Kind: IterationDone, Iteration: iteration,
		NewPoints: newPoints, CumPoints: cumPoints, CumTimingDiffs: cumTimingDiffs,
		Cycles: cycles,
	})
}

// TimingDiff counts one secret-dependent timing difference (also the ones
// whose findings are dropped by Options.KeepFindings).
func (o *Observer) TimingDiff() {
	if o == nil {
		return
	}
	o.timingDiffs.Inc()
}

// BatchMerged closes one parallel merge round. The latency feeds the merge
// histogram only — events carry no wall-clock fields.
func (o *Observer) BatchMerged(batch, mergedIterations, corpusSize int, latency time.Duration) {
	if o == nil {
		return
	}
	o.corpus.Set(float64(corpusSize))
	o.mergeLat.Observe(latency.Seconds())
	o.updateRate()
	o.emit(Event{
		Kind: BatchMerged, Batch: batch,
		MergedIterations: mergedIterations, CorpusSize: corpusSize,
	})
}

// CampaignEnd closes a campaign with its final statistics.
func (o *Observer) CampaignEnd(iterations, cumPoints, cumTimingDiffs, findings, corpusSize int, cycles int64) {
	if o == nil {
		return
	}
	o.corpus.Set(float64(corpusSize))
	o.updateRate()
	o.emit(Event{
		Kind: CampaignEnd, Iterations: iterations,
		CumPoints: cumPoints, CumTimingDiffs: cumTimingDiffs,
		Findings: findings, CorpusSize: corpusSize, Cycles: cycles,
	})
}

// Seq returns the sequence number of the last emitted event — the value a
// campaign checkpoint stores so a resumed campaign's stream continues the
// original numbering.
func (o *Observer) Seq() int {
	if o == nil {
		return 0
	}
	return o.seq
}

// CampaignResumed rewinds the Observer to a checkpointed campaign position:
// the event sequence continues from seq and the cumulative metrics are
// seeded with the checkpointed totals. No event is emitted — a resumed
// campaign's stream byte-continues the interrupted one, so the
// concatenation of the streams before and after the checkpoint equals an
// uninterrupted run's stream.
func (o *Observer) CampaignResumed(seq, iterations, cumPoints, cumTimingDiffs, findings, corpusSize int, cycles int64) {
	if o == nil {
		return
	}
	o.seq = seq
	o.iterations.Add(int64(iterations))
	o.triggered.Set(float64(cumPoints))
	o.timingDiffs.Add(int64(cumTimingDiffs))
	o.findings.Add(int64(findings))
	o.corpus.Set(float64(corpusSize))
	o.cycles.Add(cycles)
	// Throughput counts only iterations executed by this process.
	o.campaignStart = time.Now() //sonar:nondeterministic-ok wall clock feeds the throughput gauge, never events
	o.itersAtStart = o.iterations.Value()
}

// WorkerFailed records one failed batch attempt. Emitted by the parallel
// coordinator in worker order after the merge barrier, so the event stream
// stays deterministic for a fixed fault schedule.
func (o *Observer) WorkerFailed(worker, batch, attempt int, reason string) {
	if o == nil {
		return
	}
	o.workerFails.Inc()
	o.emit(Event{Kind: WorkerFailed, Batch: batch, Worker: worker, Attempt: attempt, Reason: reason})
}

// BatchRetried records a batch recovered by a retry after attempt-1
// failures.
func (o *Observer) BatchRetried(worker, batch, attempt int) {
	if o == nil {
		return
	}
	o.retries.Inc()
	o.emit(Event{Kind: BatchRetried, Batch: batch, Worker: worker, Attempt: attempt})
}

// CheckpointSaved accounts one written campaign checkpoint. Metrics only:
// checkpoint cadence is an operational choice, and keeping it out of the
// event stream preserves stream byte-identity across different -checkpoint
// settings.
func (o *Observer) CheckpointSaved(iteration, size int, latency time.Duration) {
	if o == nil {
		return
	}
	o.ckpts.Inc()
	o.ckptLat.Observe(latency.Seconds())
	o.ckptBytes.Set(float64(size))
	o.ckptIter.Set(float64(iteration))
}

func (o *Observer) updateRate() {
	el := time.Since(o.campaignStart).Seconds() //sonar:nondeterministic-ok operator-facing rate gauge only
	if o.campaignStart.IsZero() || el <= 0 {
		return
	}
	o.ips.Set(float64(o.iterations.Value()-o.itersAtStart) / el)
}

// MutationOffered counts one corpus retention decision. Metrics only;
// safe from worker goroutines.
func (o *Observer) MutationOffered(accepted bool) {
	if o == nil {
		return
	}
	o.mutOffered.Inc()
	if accepted {
		o.mutAccepted.Inc()
	}
	o.mutRate.Set(float64(o.mutAccepted.Value()) / float64(o.mutOffered.Value()))
}

// MutationsOffered counts a batch of corpus retention decisions in one
// update — the batched form of MutationOffered the workers' hot loop uses:
// two atomic adds per batch instead of several per iteration. Metrics only;
// safe from worker goroutines.
func (o *Observer) MutationsOffered(offered, accepted int) {
	if o == nil || offered <= 0 {
		return
	}
	o.mutOffered.Add(int64(offered))
	o.mutAccepted.Add(int64(accepted))
	o.mutRate.Set(float64(o.mutAccepted.Value()) / float64(o.mutOffered.Value()))
}

// Mutations returns the retention decisions counted so far: testcases
// offered to the corpus and testcases it kept.
func (o *Observer) Mutations() (offered, accepted int64) {
	if o == nil {
		return 0, 0
	}
	return o.mutOffered.Value(), o.mutAccepted.Value()
}

// WorkerBatch accounts one drained batch to a worker's utilization
// metrics. Metrics only; safe from worker goroutines.
func (o *Observer) WorkerBatch(worker, iterations int, busy time.Duration) {
	if o == nil {
		return
	}
	w := strconv.Itoa(worker)
	o.workerIters.At(w).Add(int64(iterations))
	o.workerBusy.At(w).Add(busy.Seconds())
}

// SetBestInterval publishes an improved per-point best reqsIntvl. Metrics
// only; the coordinator calls it on improvement.
func (o *Observer) SetBestInterval(point int, interval int64) {
	if o == nil {
		return
	}
	o.bestIntvl.At(strconv.Itoa(point)).Set(float64(interval))
}

// DUTInfo publishes the static-analysis gauges for the device under test.
func (o *Observer) DUTInfo(design string, naiveMuxes, tracedPoints, monitoredPoints int) {
	if o == nil {
		return
	}
	o.dutInfo.At(design).Set(1)
	o.naiveMuxes.Set(float64(naiveMuxes))
	o.tracedPts.Set(float64(tracedPoints))
	o.monitored.Set(float64(monitoredPoints))
}

// SimCompileInfo publishes what the simulator's optimizing compile pipeline
// did to a netlist-backed DUT: how many surviving nodes still take the
// scalar-spill slow path, and how many nodes the destructive passes removed
// (eliminated + collapsed + fused). Metric-only; safe from worker
// goroutines. The gauges are registered lazily on first call, so behavioral
// campaigns — which never compile a simulator — leave them absent from the
// exposition rather than reporting a misleading zero.
func (o *Observer) SimCompileInfo(spilled, eliminated int) {
	if o == nil {
		return
	}
	o.Metrics.Gauge(MetricSimSpilled, "Simulator nodes on the scalar-spill slow path after compile.").Set(float64(spilled))
	o.Metrics.Gauge(MetricSimEliminated, "Simulator nodes removed by the optimizing compile pipeline.").Set(float64(eliminated))
}

// FlowInfo publishes the static information-flow audit gauges for the
// device under test (internal/hdl/flow): the contention-surface size, how
// many points any taint reaches, how many points both the secret and the
// attacker reach, and the audit's finding count by severity. Like
// SimCompileInfo, the gauges are registered lazily on first call so
// campaigns that never audit leave them absent rather than reporting a
// misleading zero.
func (o *Observer) FlowInfo(surface, tainted, taintPairs, infoFindings, errorFindings int) {
	if o == nil {
		return
	}
	o.Metrics.Gauge(MetricFlowSurface, "Contention-surface MUX cascades found by the flow audit.").Set(float64(surface))
	o.Metrics.Gauge(MetricFlowTainted, "Contention points reached by any taint label.").Set(float64(tainted))
	o.Metrics.Gauge(MetricFlowTaintPairs, "Contention points reached by both secret and attacker taint.").Set(float64(taintPairs))
	o.Metrics.GaugeVec(MetricFlowFindings, "Flow audit findings by severity.", "severity").At("info").Set(float64(infoFindings))
	o.Metrics.GaugeVec(MetricFlowFindings, "Flow audit findings by severity.", "severity").At("error").Set(float64(errorFindings))
}

// Close closes every attached sink, joining their errors. The Observer
// (and its metrics) stay readable afterwards.
func (o *Observer) Close() error {
	if o == nil {
		return nil
	}
	var errs []error
	for _, s := range o.sinks {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
