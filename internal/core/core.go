// Package core is Sonar's end-to-end pipeline: contention-point
// identification and filtering, instrumentation, state-guided fuzzing,
// dual-differential side-channel detection, and exploitability analysis —
// the composition of the paper's three components (Figure 2) over a DUT.
package core

import (
	"fmt"
	"sort"
	"strings"

	"sonar/internal/attack"
	"sonar/internal/fuzz"
	"sonar/internal/hdl/flow"
	"sonar/internal/obs"
	"sonar/internal/trace"
	"sonar/internal/uarch"
)

// Sonar drives the full framework against one DUT.
type Sonar struct {
	// DUT is the analyzed, instrumented device under test.
	DUT *fuzz.DUT
	// mk rebuilds the SoC, so sharded campaigns can elaborate one private
	// DUT per worker.
	mk func() *uarch.SoC
	// audit caches the static information-flow audit of the DUT, computed
	// on first use (Audit) and published as sonar_flow_* gauges alongside
	// the identification gauges.
	audit *flow.Audit
}

// New analyzes and instruments a SoC built by mk, returning a ready-to-fuzz
// pipeline. The constructor is retained: sharded campaigns elaborate
// additional DUTs from it, one per worker beyond the first.
func New(mk func() *uarch.SoC) *Sonar {
	return &Sonar{DUT: fuzz.NewDUT(mk()), mk: mk}
}

// IdentificationReport summarizes §5's static analysis results: contention
// point counts before/after bottom-up tracing and risk filtering, and their
// distribution over components (Figures 6 and 7).
type IdentificationReport struct {
	// Design is the DUT name.
	Design string
	// NaiveMuxes is what counting every 2:1 MUX would report.
	NaiveMuxes int
	// TracedPoints is the number of contention points after bottom-up
	// cascade tracing.
	TracedPoints int
	// MonitoredPoints is the number surviving the §5.2 risk filter.
	MonitoredPoints int
	// ByComponent maps component -> [traced, monitored].
	ByComponent map[string][2]int
}

// TracingReduction is the fraction of naive MUX count eliminated by
// bottom-up tracing (the paper reports 71.5% for BOOM, 80.4% for NutShell).
func (r *IdentificationReport) TracingReduction() float64 {
	if r.NaiveMuxes == 0 {
		return 0
	}
	return 1 - float64(r.TracedPoints)/float64(r.NaiveMuxes)
}

// FilterReduction is the fraction of traced points dropped by the risk
// filter (26.2% for BOOM, 35.7% for NutShell in the paper).
func (r *IdentificationReport) FilterReduction() float64 {
	if r.TracedPoints == 0 {
		return 0
	}
	return 1 - float64(r.MonitoredPoints)/float64(r.TracedPoints)
}

// String renders the report.
func (r *IdentificationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d 2:1 MUXes -> %d contention points (%.1f%% reduction) -> %d monitored (%.1f%% filtered)\n",
		r.Design, r.NaiveMuxes, r.TracedPoints, 100*r.TracingReduction(), r.MonitoredPoints, 100*r.FilterReduction())
	comps := make([]string, 0, len(r.ByComponent))
	for c := range r.ByComponent { //sonar:nondeterministic-ok keys collected then sorted
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		n := r.ByComponent[c]
		fmt.Fprintf(&b, "  %-12s %5d traced, %5d monitored\n", c, n[0], n[1])
	}
	return b.String()
}

// Identify runs the static analysis report for the DUT.
func (s *Sonar) Identify() *IdentificationReport {
	a := s.DUT.Analysis
	return &IdentificationReport{
		Design:          a.Netlist.Name(),
		NaiveMuxes:      a.NaiveMuxCount,
		TracedPoints:    len(a.Points),
		MonitoredPoints: len(a.Monitored()),
		ByComponent:     a.ByComponent(),
	}
}

// Fuzz runs a state-guided fuzzing campaign (§6) with dual-differential
// detection (§7) through fuzz.RunParallelExec: Options.Workers shards on a
// pool of DUTs — the primary DUT first, the rest elaborated from the
// retained SoC constructor — merging feedback after every batch. A fixed
// (Seed, Workers, BatchSize) is reproducible across runs, and Options.Lanes
// never changes a result (docs/SIMULATOR.md). An attached Options.Observer
// additionally receives the DUT's identification gauges, so one metrics
// scrape relates campaign coverage to the point population.
func (s *Sonar) Fuzz(opt fuzz.Options) *fuzz.Stats {
	s.observeIdentification(opt.Observer)
	return fuzz.RunParallelExec(s.executors(), opt)
}

// Resume continues a checkpointed campaign (fuzz.ResumeExec) on the primary
// DUT and DUTs elaborated from the retained SoC constructor. opt is
// typically cp.CampaignOptions() plus operational overrides; see
// fuzz.ResumeExec for the shape-matching and bit-identity contract.
func (s *Sonar) Resume(opt fuzz.Options, cp *fuzz.Checkpoint) (*fuzz.Stats, error) {
	s.observeIdentification(opt.Observer)
	return fuzz.ResumeExec(s.executors(), opt, cp)
}

// executors returns one campaign's executor factory. Its first call hands
// out the primary DUT, so a single-shard campaign elaborates nothing beyond
// New's DUT and leaves its pipeline counters on it. Every later call —
// further pooled executors and the replacements of failed ones —
// elaborates a private DUT that reuses the primary's contention-point
// analysis by dense-id rebinding instead of re-running trace.Analyze, so a
// stalled attempt never shares its DUT with the executor that replaces it.
// Safe for concurrent use: pooled executors are built in parallel.
func (s *Sonar) executors() func() fuzz.Executor {
	return fuzz.PrimaryThen(s.DUT, func() fuzz.Executor {
		return fuzz.NewDUTWithAnalysis(s.mk(), s.DUT.Analysis)
	})
}

// Audit returns the static information-flow audit of the DUT
// (internal/hdl/flow) under the heuristic source designation, computed once
// and cached.
func (s *Sonar) Audit() *flow.Audit {
	if s.audit == nil {
		s.audit = flow.Analyze(s.DUT.Analysis.Netlist, s.DUT.Analysis, flow.Spec{})
	}
	return s.audit
}

// observeIdentification publishes the §5 static-analysis results and the
// information-flow audit as gauges on the campaign Observer (idempotent;
// no-op for a nil Observer).
func (s *Sonar) observeIdentification(o *obs.Observer) {
	if o == nil {
		return
	}
	r := s.Identify()
	o.DUTInfo(r.Design, r.NaiveMuxes, r.TracedPoints, r.MonitoredPoints)
	au := s.Audit()
	info, errs := 0, 0
	for _, f := range au.Findings {
		if f.Severity == flow.Error {
			errs++
		} else {
			info++
		}
	}
	o.FlowInfo(len(au.Surface), au.TaintedPoints(), au.TaintPairPoints(), info, errs)
}

// Point returns the contention point with the given ID.
func (s *Sonar) Point(id int) *trace.Point {
	return s.DUT.Analysis.Points[id]
}

// Exploit evaluates Meltdown-style PoCs (§7.3/§8.5) against a fresh key.
func Exploit(pocs []attack.PoC, key [attack.KeyBytes]byte, attempts, trialsPerBit int, seed int64) []attack.Result {
	out := make([]attack.Result, 0, len(pocs))
	for _, p := range pocs {
		out = append(out, attack.Run(p, key, attempts, trialsPerBit, seed))
	}
	return out
}
