// Package fleet implements the distributed campaign service: a controller
// that owns campaign and shard-lease state, an HTTP server exposing it
// (JSON, except the binary lease-loop bodies of wire.go; docs/SERVICE.md
// documents the API), a client, and the worker loop that executes leases
// against the fuzzing engine.
//
// The controller is the server half of the fuzz.LeaseCoordinator contract:
// it splits each fuzz campaign into shard leases, grants at most one lease
// per open shard per round, re-offers leases lost to worker churn (each
// expiry is a failed attempt under the engine's retry bound,
// fuzz.LeaseCoordinator.Fail), and folds reported results at round barriers
// in canonical worker order. Because lease execution is deterministic and
// expiry/re-offer bookkeeping is metrics-only, a distributed campaign over
// a fixed (Seed, Workers, BatchSize) topology produces a byte-identical
// event stream and identical final Stats to a local fuzz.RunParallelExec — even
// when workers die mid-campaign, as long as no shard exhausts its retries.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sonar/internal/boom"
	"sonar/internal/firrtl"
	"sonar/internal/fuzz"
	"sonar/internal/hdl"
	"sonar/internal/hdl/flow"
	"sonar/internal/nutshell"
	"sonar/internal/obs"
	"sonar/internal/trace"
	"sonar/internal/uarch"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// errBadRequest maps to 400: malformed specs, unknown DUT names,
	// rejected lease results.
	errBadRequest = errors.New("bad request")
	// errNotFound maps to 404: unknown campaign or resource.
	errNotFound = errors.New("not found")
	// errGone maps to 409: a lease that expired or was already resolved —
	// the shard has moved on, the worker should discard its result.
	errGone = errors.New("lease gone")
	// errEvicted maps to 410: a finished campaign the controller no longer
	// keeps (keepFinished).
	errEvicted = errors.New("campaign evicted")
	// errConflict maps to 409: a resource that exists but is not in the
	// right state (e.g. the result of a still-running campaign).
	errConflict = errors.New("conflict")
	// errTooLarge maps to 413: a request body over the server's size cap.
	errTooLarge = errors.New("request body too large")
)

// Fleet metric names (exposed on the server's /metrics handler, alongside
// obs.MetricWorkerFailures which the fleet increments on every lease
// expiry).
const (
	MetricCampaigns        = "sonar_fleet_campaigns_total"
	MetricCampaignsRunning = "sonar_fleet_campaigns_running"
	MetricLeasesGranted    = "sonar_fleet_leases_granted_total"
	MetricLeasesCompleted  = "sonar_fleet_leases_completed_total"
	MetricLeasesExpired    = "sonar_fleet_leases_expired_total"
	MetricLeaseRenewals    = "sonar_fleet_lease_renewals_total"
	MetricStaleReports     = "sonar_fleet_stale_reports_total"
	MetricShardsAbandoned  = "sonar_fleet_shards_abandoned_total"
)

// Per-campaign gauge names (label: campaign ID).
const (
	MetricCampaignIterations = "sonar_campaign_iterations_done"
	MetricCampaignRound      = "sonar_campaign_round"
	MetricCampaignPoints     = "sonar_campaign_points"
	MetricCampaignFindings   = "sonar_campaign_findings"
	MetricCampaignCorpus     = "sonar_campaign_corpus_seeds"
	MetricCampaignDone       = "sonar_campaign_done"
)

// keepFinished is how many finished campaigns the controller keeps, with
// their results, events and checkpoints; finishing one more evicts the
// oldest finished, whose requests then answer 410. Fetch a result soon
// after its campaign finishes.
const keepFinished = 64

// DefaultLeaseTTL is the lease time-to-live when Config.LeaseTTL is zero.
// docs/SERVICE.md's runbook explains how to tune it: it must comfortably
// exceed one batch's execution time, or healthy workers lose their leases.
const DefaultLeaseTTL = 30 * time.Second

// Builtins returns the built-in DUT registry shared by cmd/sonar-server and
// cmd/sonar-worker: the paper's two targets, plus boom's dual-core
// elaboration under its own name. Campaign submission resolves a dual-core
// spec (Options.DualCore) against the "-dual" variant, so workers always
// elaborate the exact design the server folds stats against.
func Builtins() map[string]func() *uarch.SoC {
	return map[string]func() *uarch.SoC{
		"boom":      boom.New,
		"boom-dual": boom.NewDual,
		"nutshell":  nutshell.New,
	}
}

// Config parameterizes a Controller.
type Config struct {
	// LeaseTTL is how long a granted lease stays valid without a renewal;
	// zero means DefaultLeaseTTL. Expired leases are re-offered to the next
	// worker that asks, up to the engine's retry bound of two re-offers per
	// shard per round; the third expiry abandons the shard and drops its
	// remaining budget, exactly like a local campaign's fault disposition.
	LeaseTTL time.Duration
	// DUTs overrides the built-in DUT registry (Builtins) — tests inject
	// cheap lite designs here. Workers must be configured with the same
	// registry.
	DUTs map[string]func() *uarch.SoC
}

// ttl returns the effective lease TTL.
func (cfg Config) ttl() time.Duration {
	if cfg.LeaseTTL <= 0 {
		return DefaultLeaseTTL
	}
	return cfg.LeaseTTL
}

// Spec is a campaign submission: exactly one of DUT or FIRRTL must be set.
// A named DUT starts a fuzzing campaign. FIRRTL source with zero iterations
// starts an analysis-only campaign (§5 contention-point identification)
// that completes immediately; with Options.Iterations >= 1 it starts an
// executable netlist campaign — workers elaborate the design into a
// lane-parallel fuzz.LaneDUT and whole lane groups of testcase pairs run
// bit-parallel through the optimizing simulator pipeline.
type Spec struct {
	// DUT names a design in the server's registry ("boom", "nutshell", ...).
	DUT string `json:"dut,omitempty"`
	// FIRRTL is FIRRTL source text: analysis-only when Options.Iterations is
	// zero, a lane-parallel netlist fuzzing campaign otherwise.
	FIRRTL string `json:"firrtl,omitempty"`
	// Options is the campaign shape. The server normalizes Workers and
	// BatchSize to their effective values at submission; the determinism
	// contract is per effective (Seed, Workers, BatchSize).
	Options fuzz.Shape `json:"options"`
}

// maxWorkers and maxBatchSize bound a submitted topology: the server keeps
// state per shard, and a lease's worker per iteration of its batch, so
// Submit refuses a spec above either before it elaborates anything.
const (
	maxWorkers   = 1024
	maxBatchSize = 1024
)

// checkTopology rejects a spec whose Workers or BatchSize exceeds its bound.
func (spec *Spec) checkTopology() error {
	if o := &spec.Options; o.Workers > maxWorkers || o.BatchSize > maxBatchSize {
		return fmt.Errorf("%w: workers %d, batch_size %d: limits are %d and %d", errBadRequest, o.Workers, o.BatchSize, maxWorkers, maxBatchSize)
	}
	return nil
}

// AnalysisResult is the outcome of an analysis-only campaign — the same
// numbers the sonar CLI's identification report prints.
type AnalysisResult struct {
	// Design is the circuit name from the FIRRTL source.
	Design string `json:"design"`
	// NaiveMuxes counts all 2:1 MUXes (the naive baseline of paper Fig. 6).
	NaiveMuxes int `json:"naive_muxes"`
	// TracedPoints counts the deduplicated contention points.
	TracedPoints int `json:"traced_points"`
	// MonitoredPoints counts the points surviving the §5.2 filter.
	MonitoredPoints int `json:"monitored_points"`
	// ByComponent maps component name to [traced, monitored] counts.
	ByComponent map[string][2]int `json:"by_component"`
	// Audit is the static information-flow audit summary of the design.
	Audit *AuditSummary `json:"audit,omitempty"`
}

// AuditSummary is the API's view of a design's information-flow audit
// (internal/hdl/flow), attached to every FIRRTL campaign at submission.
type AuditSummary struct {
	// SurfaceCascades is the number of arbitration MUX cascades in the
	// contention surface. Zero is rejected at submission: such a design has
	// nothing to monitor.
	SurfaceCascades int `json:"surface_cascades"`
	// TaintedPoints counts contention points reached by any taint label
	// under the heuristic source designation.
	TaintedPoints int `json:"tainted_points"`
	// TaintPairPoints counts points reached by both secret and attacker
	// taint — the statically channel-capable points.
	TaintPairPoints int `json:"taint_pair_points"`
	// TopPoints is the audit's placement rank order (monitorable point IDs,
	// highest risk first), truncated to the first auditTopPoints entries.
	TopPoints []int `json:"top_points,omitempty"`
	// InfoFindings counts the audit's Info-severity findings.
	InfoFindings int `json:"info_findings"`
	// ErrorFindings counts Error-severity findings; a submission with any
	// is rejected, so a stored summary always reports zero.
	ErrorFindings int `json:"error_findings"`
}

// auditTopPoints caps the rank order echoed in an AuditSummary.
const auditTopPoints = 16

// auditFIRRTL audits a parsed FIRRTL design for submission: campaigns get
// the summary attached, and designs the audit proves unmonitorable — an
// empty contention surface or a cross-check discrepancy — are rejected
// before any lease is opened.
func auditFIRRTL(n *hdl.Netlist, a *trace.Analysis) (*AuditSummary, error) {
	au := flow.Analyze(n, a, flow.Spec{})
	if len(au.Surface) == 0 {
		return nil, fmt.Errorf("%w: firrtl: design %s has an empty contention surface (no arbitration MUX cascades); nothing to monitor", errBadRequest, n.Name())
	}
	if err := au.Err(); err != nil {
		return nil, fmt.Errorf("%w: firrtl audit: %v", errBadRequest, err)
	}
	sum := &AuditSummary{
		SurfaceCascades: len(au.Surface),
		TaintedPoints:   au.TaintedPoints(),
		TaintPairPoints: au.TaintPairPoints(),
		TopPoints:       au.MonitorRankIDs(),
	}
	if len(sum.TopPoints) > auditTopPoints {
		sum.TopPoints = sum.TopPoints[:auditTopPoints]
	}
	for _, f := range au.Findings {
		if f.Severity == flow.Error {
			sum.ErrorFindings++
		} else {
			sum.InfoFindings++
		}
	}
	return sum, nil
}

// CampaignStatus is the API's view of one campaign.
type CampaignStatus struct {
	// ID is the campaign's deterministic identifier ("c1", "c2", ... in
	// submission order).
	ID string `json:"id"`
	// Kind is "fuzz" or "analysis".
	Kind string `json:"kind"`
	// State is "running" or "done".
	State string `json:"state"`
	// DUT is the design name: the registry name for fuzz campaigns, the
	// circuit name for analysis campaigns.
	DUT string `json:"dut"`
	// Shape is the effective campaign shape (fuzz campaigns only).
	Shape *fuzz.Shape `json:"shape,omitempty"`
	// Round is the number of completed merge rounds.
	Round int `json:"round,omitempty"`
	// Done is the campaign position in iterations (executed plus dropped),
	// as of the last round barrier.
	Done int `json:"done,omitempty"`
	// Points is the number of distinct contention points triggered so far.
	Points int `json:"points,omitempty"`
	// Findings is the number of verified side-channel findings so far.
	Findings int `json:"findings,omitempty"`
	// CorpusSize is the merged seed corpus size.
	CorpusSize int `json:"corpus_size,omitempty"`
	// GrantedLeases is the number of currently outstanding leases.
	GrantedLeases int `json:"granted_leases,omitempty"`
	// Audit is the information-flow audit summary (FIRRTL campaigns).
	Audit *AuditSummary `json:"audit,omitempty"`
}

// Result is a campaign's final result as Client.Result returns it. An
// analysis campaign's result travels as this type's JSON; a fuzz
// campaign's travels in the binary result encoding (wire.go), which the
// client renders into Stats.
type Result struct {
	// Kind is "fuzz" or "analysis".
	Kind string `json:"kind"`
	// Stats is the fuzz campaign's canonical serialized statistics; it
	// marshals to the bytes of a local run's fuzz.Stats.Wire() for the same
	// topology.
	Stats *fuzz.StatsWire `json:"stats,omitempty"`
	// Analysis is the analysis-only campaign's report.
	Analysis *AnalysisResult `json:"analysis,omitempty"`
}

// LeaseGrant is the server's response to a successful lease acquisition:
// the work assignment plus everything the worker needs to execute it.
type LeaseGrant struct {
	// LeaseID is the deterministic lease identifier
	// "{campaign}-r{round}-s{shard}-a{attempt}".
	LeaseID string
	// Campaign is the campaign ID the lease belongs to.
	Campaign string
	// DUT is the registry name of the design to elaborate — or, for FIRRTL
	// campaigns, the circuit name (informational; FIRRTL carries the design).
	DUT string
	// FIRRTL is the campaign's FIRRTL source for netlist campaigns; workers
	// elaborate it into a lane-parallel executor instead of consulting their
	// DUT registry.
	FIRRTL string
	// Shape is the campaign shape to execute under.
	Shape fuzz.Shape
	// TTLMillis is the lease time-to-live; workers renew at a fraction of
	// it while executing.
	TTLMillis int64
	// Lease is the shard-batch work assignment for fuzz.ExecuteLease.
	Lease fuzz.Lease
}

// Holding names the merged-corpus prefix a worker holds for one campaign
// (fuzz.HeldCorpus.Ref). An acquire that sends it gets a grant whose lease
// ships only the seeds after that prefix, when the prefix is the granted
// campaign's.
type Holding struct {
	// Campaign is the campaign ID the prefix belongs to.
	Campaign string
	fuzz.CorpusRef
}

// Health is the healthz endpoint's body.
type Health struct {
	// Status is "ok".
	Status string `json:"status"`
	// Draining reports whether the controller has stopped granting leases.
	Draining bool `json:"draining"`
	// Campaigns is the total number of campaigns submitted.
	Campaigns int `json:"campaigns"`
	// OpenLeases is the number of currently outstanding leases.
	OpenLeases int `json:"open_leases"`
}

// campaign is the controller's per-campaign state.
type campaign struct {
	id       string
	kind     string                 // "fuzz" | "analysis"
	dutName  string                 // registry name (fuzz) or circuit name (analysis/FIRRTL)
	firrtl   string                 // FIRRTL source for netlist campaigns, forwarded in grants
	lc       *fuzz.LeaseCoordinator // fuzz campaigns only
	sink     *obs.MemorySink        // backs the events download
	observer *obs.Observer          // fuzz campaigns: events and campaign metrics
	analysis *AnalysisResult        // analysis campaigns only
	audit    *AuditSummary          // FIRRTL campaigns: information-flow audit
	granted  map[int]*lease         // shard → outstanding lease
	// ranLast maps each shard to the worker that took its last lease, which
	// Acquire prefers for the shard's next one: that worker still keeps the
	// shard's worker state (fuzz.HeldCorpus) at the cursor the lease starts at.
	ranLast map[int]string
}

// newCampaign returns campaign id with its lease tables made; the caller
// sets its kind and what that kind needs.
func newCampaign(id string) *campaign {
	return &campaign{id: id, granted: make(map[int]*lease), ranLast: make(map[int]string)}
}

// openFuzz makes c a fuzz campaign of shape, run on executors like d, whose
// Observer records its events and campaign metrics.
func (c *campaign) openFuzz(d fuzz.Executor, shape fuzz.Shape) {
	c.kind = "fuzz"
	c.sink = obs.NewMemorySink()
	c.observer = obs.New(c.sink)
	opt := shape.Options()
	opt.Observer = c.observer
	c.lc = fuzz.NewLeaseCoordinator(d, opt)
}

// freeShard returns the open shard to grant worker: the first free one
// whose last lease the worker took, else the first free one; -1 when every
// open shard is leased out.
func (c *campaign) freeShard(worker string) int {
	first := -1
	for s := range c.lc.Shape().Workers {
		if !c.lc.ShardOpen(s) {
			continue
		}
		if _, leased := c.granted[s]; leased {
			continue
		}
		if c.ranLast[s] == worker {
			return s
		}
		if first < 0 {
			first = s
		}
	}
	return first
}

// done reports whether the campaign has finished.
func (c *campaign) done() bool {
	return c.kind == "analysis" || c.lc.Finished()
}

// lease is one outstanding granted lease.
type lease struct {
	id      string
	camp    *campaign
	shard   int
	round   int
	expires time.Time
	worker  string
}

// Controller owns all campaign and lease state behind the HTTP API. All
// methods are safe for concurrent use; a single mutex serializes access to
// the per-campaign LeaseCoordinators (which are not concurrency-safe).
type Controller struct {
	mu        sync.Mutex
	cfg       Config
	duts      map[string]func() *uarch.SoC
	factories map[string]func() *fuzz.DUT // shared-analysis DUT factories
	submitted int                         // campaigns ever submitted
	campaigns []*campaign                 // kept campaigns, in submission order
	finished  []*campaign                 // kept finished campaigns, oldest first
	byID      map[string]*campaign
	leases    map[string]*lease
	draining  bool
	now       func() time.Time
	// changed is closed, and replaced, whenever a shard may have become
	// leasable (wakeLocked); a waiting acquire sleeps on it.
	changed chan struct{}

	metrics        *obs.Metrics
	campaignsTotal *obs.Counter
	running        *obs.Gauge
	granted        *obs.Counter
	completed      *obs.Counter
	expired        *obs.Counter
	renewals       *obs.Counter
	stale          *obs.Counter
	abandonedCnt   *obs.Counter
	workerFails    *obs.Counter
	gaugeIters     *obs.GaugeVec
	gaugeRound     *obs.GaugeVec
	gaugePoints    *obs.GaugeVec
	gaugeFindings  *obs.GaugeVec
	gaugeCorpus    *obs.GaugeVec
	gaugeDone      *obs.GaugeVec
	// mutOffered and mutAccepted republish each fuzz campaign's Observer
	// retention counters (which the report replay feeds) under a campaign
	// label, since a campaign's own registry never reaches /metrics.
	mutOffered  *obs.CounterVec
	mutAccepted *obs.CounterVec
}

// NewController builds an empty controller.
func NewController(cfg Config) *Controller {
	duts := cfg.DUTs
	if duts == nil {
		duts = Builtins()
	}
	m := obs.NewMetrics()
	return &Controller{
		cfg:       cfg,
		duts:      duts,
		factories: make(map[string]func() *fuzz.DUT),
		byID:      make(map[string]*campaign),
		leases:    make(map[string]*lease),
		changed:   make(chan struct{}),
		now:       time.Now, //sonar:nondeterministic-ok lease TTL/expiry is wall-clock by design; campaign outputs never fold over it (tests inject a fake clock)
		metrics:   m,

		campaignsTotal: m.Counter(MetricCampaigns, "Campaigns submitted."),
		running:        m.Gauge(MetricCampaignsRunning, "Campaigns currently running."),
		granted:        m.Counter(MetricLeasesGranted, "Shard leases granted to workers."),
		completed:      m.Counter(MetricLeasesCompleted, "Shard leases completed by a worker report."),
		expired:        m.Counter(MetricLeasesExpired, "Shard leases expired without a report (worker churn)."),
		renewals:       m.Counter(MetricLeaseRenewals, "Lease renewals."),
		stale:          m.Counter(MetricStaleReports, "Reports for expired or already-resolved leases."),
		abandonedCnt:   m.Counter(MetricShardsAbandoned, "Shards abandoned after exhausting lease retries."),
		workerFails:    m.Counter(obs.MetricWorkerFailures, "Failed lease attempts (expiries and abandonments)."),

		gaugeIters:    m.GaugeVec(MetricCampaignIterations, "Campaign position in iterations.", "campaign"),
		gaugeRound:    m.GaugeVec(MetricCampaignRound, "Completed merge rounds.", "campaign"),
		gaugePoints:   m.GaugeVec(MetricCampaignPoints, "Distinct contention points triggered.", "campaign"),
		gaugeFindings: m.GaugeVec(MetricCampaignFindings, "Verified side-channel findings.", "campaign"),
		gaugeCorpus:   m.GaugeVec(MetricCampaignCorpus, "Merged seed corpus size.", "campaign"),
		gaugeDone:     m.GaugeVec(MetricCampaignDone, "1 once the campaign has finished.", "campaign"),
		mutOffered:    m.CounterVec(obs.MetricMutationsOffered, "Testcases offered to the corpus retention rule.", "campaign"),
		mutAccepted:   m.CounterVec(obs.MetricMutationsAccepted, "Testcases retained by the corpus (interval-improving).", "campaign"),
	}
}

// Metrics returns the controller's metric registry; the server mounts its
// Handler at /metrics.
func (ct *Controller) Metrics() *obs.Metrics { return ct.metrics }

// Submit validates a campaign spec and opens the campaign. FIRRTL specs run
// the contention-point analysis synchronously and complete immediately;
// named-DUT specs elaborate the design (once per name — the analysis is
// shared across campaigns and with nothing else to do the call can take a
// few seconds for the full cores) and open a lease coordinator.
func (ct *Controller) Submit(spec *Spec) (*CampaignStatus, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()

	if (spec.DUT == "") == (spec.FIRRTL == "") {
		return nil, fmt.Errorf("%w: spec must set exactly one of dut, firrtl", errBadRequest)
	}
	if err := spec.checkTopology(); err != nil {
		return nil, err
	}

	c := newCampaign(fmt.Sprintf("c%d", ct.submitted+1))

	switch {
	case spec.FIRRTL != "" && spec.Options.Iterations < 1:
		net, err := firrtl.ParseChecked(spec.FIRRTL)
		if err != nil {
			return nil, fmt.Errorf("%w: firrtl: %v", errBadRequest, err)
		}
		a := trace.Analyze(net)
		sum, err := auditFIRRTL(net, a)
		if err != nil {
			return nil, err
		}
		c.kind = "analysis"
		c.dutName = net.Name()
		c.audit = sum
		c.analysis = &AnalysisResult{
			Design:          net.Name(),
			NaiveMuxes:      a.NaiveMuxCount,
			TracedPoints:    len(a.Points),
			MonitoredPoints: len(a.Monitored()),
			ByComponent:     a.ByComponent(),
			Audit:           sum,
		}
	case spec.FIRRTL != "":
		// Executable netlist campaign: the source elaborates into a
		// lane-parallel executor here (for the coordinator's analysis and
		// stats folding) and again on every worker that gets a grant.
		src := spec.FIRRTL
		factory, err := fuzz.LaneDUTFactory(func() (*hdl.Netlist, error) {
			return firrtl.ParseChecked(src)
		}, 0, 0)
		if err != nil {
			return nil, fmt.Errorf("%w: firrtl: %v", errBadRequest, err)
		}
		d := factory()
		an := d.ContentionAnalysis()
		sum, err := auditFIRRTL(an.Netlist, an)
		if err != nil {
			return nil, err
		}
		c.dutName = an.Netlist.Name()
		c.audit = sum
		c.firrtl = src
		c.openFuzz(d, spec.Options)
	default:
		if spec.Options.Iterations < 1 {
			return nil, fmt.Errorf("%w: fuzz campaign needs iterations >= 1", errBadRequest)
		}
		name, err := ct.resolveDUT(spec)
		if err != nil {
			return nil, err
		}
		c.dutName = name
		c.openFuzz(ct.factoryLocked(name)(), spec.Options)
	}

	ct.submitted++
	ct.campaigns = append(ct.campaigns, c)
	ct.byID[c.id] = c
	ct.campaignsTotal.Inc()
	ct.wakeLocked()
	ct.updateGaugesLocked(c)
	st := ct.statusLocked(c)
	if c.done() {
		ct.retireLocked(c)
	} else {
		ct.running.Add(1)
	}
	return st, nil
}

// lookupLocked returns a kept campaign. An ID the controller handed out
// whose campaign it has since evicted is gone (410), any other unknown.
func (ct *Controller) lookupLocked(id string) (*campaign, error) {
	if c, ok := ct.byID[id]; ok {
		return c, nil
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "c")); err == nil && n >= 1 && n <= ct.submitted && id == fmt.Sprintf("c%d", n) {
		return nil, fmt.Errorf("%w: campaign %q finished and was evicted; the server keeps the last %d finished campaigns", errEvicted, id, keepFinished)
	}
	return nil, fmt.Errorf("%w: campaign %q", errNotFound, id)
}

// retireLocked records that c finished and evicts the oldest finished
// campaign once more than keepFinished are kept.
func (ct *Controller) retireLocked(c *campaign) {
	ct.finished = append(ct.finished, c)
	if len(ct.finished) <= keepFinished {
		return
	}
	old := ct.finished[0]
	ct.finished = ct.finished[1:]
	ct.campaigns = slices.DeleteFunc(ct.campaigns, func(x *campaign) bool { return x == old })
	delete(ct.byID, old.id)
	for _, g := range []*obs.GaugeVec{ct.gaugeIters, ct.gaugeRound, ct.gaugePoints, ct.gaugeFindings, ct.gaugeCorpus, ct.gaugeDone} {
		g.Delete(old.id)
	}
	ct.mutOffered.Delete(old.id)
	ct.mutAccepted.Delete(old.id)
}

// resolveDUT maps a spec to the registry name workers will elaborate. A
// dual-core spec resolves to the "-dual" registry variant so the worker's
// SoC matches the shape.
func (ct *Controller) resolveDUT(spec *Spec) (string, error) {
	name := spec.DUT
	if spec.Options.DualCore {
		dual := name + "-dual"
		if _, ok := ct.duts[dual]; !ok {
			return "", fmt.Errorf("%w: no dual-core variant of DUT %q in the registry", errBadRequest, name)
		}
		name = dual
	}
	if _, ok := ct.duts[name]; !ok {
		return "", fmt.Errorf("%w: unknown DUT %q", errBadRequest, spec.DUT)
	}
	return name, nil
}

// factoryLocked returns the shared-analysis DUT factory for a registry name.
func (ct *Controller) factoryLocked(name string) func() *fuzz.DUT {
	f, ok := ct.factories[name]
	if !ok {
		f = fuzz.SharedAnalysisFactory(ct.duts[name])
		ct.factories[name] = f
	}
	return f
}

// Campaigns lists the kept campaigns in submission order.
func (ct *Controller) Campaigns() []*CampaignStatus {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	out := make([]*CampaignStatus, len(ct.campaigns))
	for i, c := range ct.campaigns {
		out[i] = ct.statusLocked(c)
	}
	return out
}

// Campaign returns one campaign's status.
func (ct *Controller) Campaign(id string) (*CampaignStatus, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	c, err := ct.lookupLocked(id)
	if err != nil {
		return nil, err
	}
	return ct.statusLocked(c), nil
}

// Events returns a campaign's JSONL event stream so far (empty for
// analysis-only campaigns, which emit no events).
func (ct *Controller) Events(id string) ([]byte, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	c, err := ct.lookupLocked(id)
	if err != nil {
		return nil, err
	}
	if c.sink == nil {
		return nil, nil
	}
	return c.sink.Bytes(), nil
}

// Result returns a finished campaign's result: an analysis campaign's
// report, or a fuzz campaign's statistics. A still-running fuzz campaign is
// a conflict. A finished campaign's statistics are final — no call writes
// them again (TestFinishedStatsNeverWritten) — so the caller reads and
// encodes them without holding the controller's lock.
func (ct *Controller) Result(id string) (*AnalysisResult, *fuzz.Stats, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	c, err := ct.lookupLocked(id)
	if err != nil {
		return nil, nil, err
	}
	if c.kind == "analysis" {
		return c.analysis, nil, nil
	}
	if !c.lc.Finished() {
		return nil, nil, fmt.Errorf("%w: campaign %q is still running", errConflict, id)
	}
	return nil, c.lc.Stats(), nil
}

// Checkpoint returns a fuzz campaign's state as an encoded checkpoint file
// (the same format fuzz.Checkpoint.Save writes), captured at the last
// closed round barrier.
func (ct *Controller) Checkpoint(id string) ([]byte, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	c, err := ct.lookupLocked(id)
	if err != nil {
		return nil, err
	}
	if c.kind != "fuzz" {
		return nil, fmt.Errorf("%w: campaign %q is analysis-only and has no checkpoint", errNotFound, id)
	}
	return c.lc.Snapshot(c.lc.Finished()).Encode()
}

// maxAcquireWait bounds how long Acquire waits for a shard to free up.
// Reports wake it at once; the bound is for expiries, which the controller
// notices only at its next call, so a shard freed that way goes to the
// worker's next acquire.
const maxAcquireWait = time.Second

// Acquire offers a lease to a worker: an open, un-leased shard of the
// oldest running campaign that has one — the first whose last lease this
// worker took, else the first (freeShard). have, when non-nil, is the
// corpus prefix the worker holds; a lease of that campaign ships only the
// seeds after it.
// When every open shard is leased out, Acquire waits — at most
// maxAcquireWait, and not past ctx — for a report or an expiry to free one
// (the round's last report opens the next round's shards), so a worker
// need not poll its way through a round. A nil grant (and nil error) means
// no work is available: the wait ran out, or, answered at once, no running
// campaign has a lease out or the server is draining.
func (ct *Controller) Acquire(ctx context.Context, worker string, have *Holding) (*LeaseGrant, error) {
	var timeout <-chan time.Time
	for {
		ct.mu.Lock()
		g, pending, err := ct.acquireLocked(worker, have)
		changed := ct.changed
		ct.mu.Unlock()
		if g != nil || err != nil || !pending {
			return g, err
		}
		if timeout == nil {
			t := time.NewTimer(maxAcquireWait)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-changed:
		case <-timeout:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// acquireLocked grants a free shard of the oldest running campaign that
// has one: the first free shard whose last lease this worker took, else
// the first free shard. pending reports whether, with none free, leases of
// a running campaign are outstanding.
func (ct *Controller) acquireLocked(worker string, have *Holding) (g *LeaseGrant, pending bool, err error) {
	ct.sweepLocked()
	if ct.draining {
		return nil, false, nil
	}
	for _, c := range ct.campaigns {
		if c.kind != "fuzz" || c.lc.Finished() {
			continue
		}
		pending = pending || len(c.granted) > 0
		shard := c.freeShard(worker)
		if shard < 0 {
			continue
		}
		var ref fuzz.CorpusRef
		if have != nil && have.Campaign == c.id {
			ref = have.CorpusRef
		}
		payload, err := c.lc.Lease(shard, ref)
		if err != nil {
			return nil, false, err
		}
		l := &lease{
			id:   fmt.Sprintf("%s-r%d-s%d-a%d", c.id, payload.Round, shard, c.lc.Failures(shard)+1),
			camp: c, shard: shard, round: payload.Round,
			expires: ct.now().Add(ct.cfg.ttl()),
			worker:  worker,
		}
		c.granted[shard] = l
		c.ranLast[shard] = worker
		ct.leases[l.id] = l
		ct.granted.Inc()
		return &LeaseGrant{
			LeaseID:   l.id,
			Campaign:  c.id,
			DUT:       c.dutName,
			FIRRTL:    c.firrtl,
			Shape:     c.lc.Shape(),
			TTLMillis: ct.cfg.ttl().Milliseconds(),
			Lease:     *payload,
		}, false, nil
	}
	return nil, pending, nil
}

// Renew extends an outstanding lease's TTL.
func (ct *Controller) Renew(leaseID string) (time.Duration, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	l, ok := ct.leases[leaseID]
	if !ok {
		return 0, fmt.Errorf("%w: lease %q expired or already resolved", errGone, leaseID)
	}
	l.expires = ct.now().Add(ct.cfg.ttl())
	ct.renewals.Inc()
	return ct.cfg.ttl(), nil
}

// Report resolves an outstanding lease with its executed result. A result
// for an expired or already-resolved lease is gone (the shard was re-leased
// or the round moved on); a result the coordinator rejects is a bad
// request.
func (ct *Controller) Report(leaseID string, res *fuzz.LeaseResult) error {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	l, ok := ct.leases[leaseID]
	if !ok {
		ct.stale.Inc()
		return fmt.Errorf("%w: lease %q expired or already resolved", errGone, leaseID)
	}
	if res == nil || res.Shard != l.shard || res.Round != l.round {
		return fmt.Errorf("%w: result does not match lease %q (shard %d round %d)", errBadRequest, leaseID, l.shard, l.round)
	}
	if err := l.camp.lc.Report(res); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	delete(ct.leases, leaseID)
	delete(l.camp.granted, l.shard)
	ct.completed.Inc()
	ct.afterAdvanceLocked(l.camp)
	ct.wakeLocked()
	return nil
}

// Drain switches lease granting off (true) or back on (false). Outstanding
// leases can still be renewed and reported; Acquire returns no work while
// draining, so workers idle and the operator can stop them or the server.
func (ct *Controller) Drain(on bool) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.draining = on
	ct.wakeLocked()
}

// Health summarizes the controller for the healthz endpoint.
func (ct *Controller) Health() *Health {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.sweepLocked()
	return &Health{
		Status:     "ok",
		Draining:   ct.draining,
		Campaigns:  ct.submitted,
		OpenLeases: len(ct.leases),
	}
}

// sweepLocked expires overdue leases, recording each expiry as a failed
// attempt with the campaign's coordinator, which abandons a shard that
// exhausted its retries. It runs at the top of every API call — the
// controller has no background clock, so expiry is processed lazily but
// before any state is read or changed. Expiry is metrics-only bookkeeping
// (no events) unless it tips a shard into abandonment, which emits the same
// worker_failed events a local campaign's fault disposition does — that is
// what keeps a churned-but-recovered campaign byte-identical to a
// fault-free local run.
func (ct *Controller) sweepLocked() {
	now := ct.now()
	var due []*lease
	for _, l := range ct.leases { //sonar:nondeterministic-ok expiry candidates are collected then sorted by lease id before any state change
		if !l.expires.After(now) {
			due = append(due, l)
		}
	}
	if len(due) == 0 {
		return
	}
	sort.Slice(due, func(i, j int) bool { return due[i].id < due[j].id })
	defer ct.wakeLocked()
	for _, l := range due {
		delete(ct.leases, l.id)
		delete(l.camp.granted, l.shard)
		ct.expired.Inc()
		ct.workerFails.Inc()
		abandoned, err := l.camp.lc.Fail(l.shard, fmt.Sprintf("lease %s expired after %v", l.id, ct.cfg.ttl()))
		if err == nil && abandoned {
			ct.abandonedCnt.Inc()
			ct.workerFails.Inc()
			ct.afterAdvanceLocked(l.camp)
		}
	}
}

// wakeLocked wakes every waiting acquire to look for a free shard again.
func (ct *Controller) wakeLocked() {
	close(ct.changed)
	ct.changed = make(chan struct{})
}

// afterAdvanceLocked refreshes derived state after a coordinator mutation:
// gauges re-publish, and a finished campaign leaves the running set for the
// kept finished ones.
func (ct *Controller) afterAdvanceLocked(c *campaign) {
	ct.updateGaugesLocked(c)
	if c.lc.Finished() {
		ct.running.Add(-1)
		ct.retireLocked(c)
	}
}

// updateGaugesLocked publishes a campaign's per-campaign gauges.
func (ct *Controller) updateGaugesLocked(c *campaign) {
	done := 0.0
	if c.done() {
		done = 1
	}
	ct.gaugeDone.At(c.id).Set(done)
	if c.kind != "fuzz" {
		return
	}
	st := c.lc.Stats()
	ct.gaugeIters.At(c.id).Set(float64(c.lc.Position()))
	ct.gaugeRound.At(c.id).Set(float64(c.lc.Round()))
	ct.gaugePoints.At(c.id).Set(float64(len(st.TriggeredPoints)))
	ct.gaugeFindings.At(c.id).Set(float64(len(st.Findings)))
	ct.gaugeCorpus.At(c.id).Set(float64(c.lc.CorpusLen()))
	offered, accepted := c.observer.Mutations()
	catchUp(ct.mutOffered.At(c.id), offered)
	catchUp(ct.mutAccepted.At(c.id), accepted)
}

// catchUp advances a counter that mirrors a monotonic total to that total.
func catchUp(c *obs.Counter, total int64) { c.Add(total - c.Value()) }

// statusLocked builds a campaign's API status.
func (ct *Controller) statusLocked(c *campaign) *CampaignStatus {
	s := &CampaignStatus{
		ID:    c.id,
		Kind:  c.kind,
		State: "running",
		DUT:   c.dutName,
		Audit: c.audit,
	}
	if c.done() {
		s.State = "done"
	}
	if c.kind == "fuzz" {
		shape := c.lc.Shape()
		st := c.lc.Stats()
		s.Shape = &shape
		s.Round = c.lc.Round()
		s.Done = c.lc.Position()
		s.Points = len(st.TriggeredPoints)
		s.Findings = len(st.Findings)
		s.CorpusSize = c.lc.CorpusLen()
		s.GrantedLeases = len(c.granted)
	}
	return s
}
