package core

import (
	"path/filepath"
	"strings"
	"testing"

	"sonar/internal/fuzz"
	"sonar/internal/obs"
	"sonar/internal/uarch"
)

func TestIdentifyReport(t *testing.T) {
	s := New(func() *uarch.SoC {
		return uarch.NewSoC(uarch.BoomConfig(), 1, []uarch.ArraySpec{
			{Component: "rob", Name: "entries", Entries: 4, Fanin: 2, Width: 8, Role: uarch.RoleROB},
		}, []uarch.FilterSpec{
			{Component: "rob", Const: 3, NoValid: 2, Fanin: 2},
		})
	})
	r := s.Identify()
	if r.TracedPoints == 0 || r.MonitoredPoints == 0 {
		t.Fatalf("report empty: %+v", r)
	}
	if r.MonitoredPoints >= r.TracedPoints {
		t.Errorf("filter removed nothing: %d of %d", r.MonitoredPoints, r.TracedPoints)
	}
	if r.TracedPoints >= r.NaiveMuxes {
		t.Errorf("tracing reduced nothing: %d of %d", r.TracedPoints, r.NaiveMuxes)
	}
	if r.TracingReduction() <= 0 || r.FilterReduction() <= 0 {
		t.Error("reductions must be positive")
	}
	text := r.String()
	if !strings.Contains(text, "monitored") || !strings.Contains(text, "rob") {
		t.Errorf("report text incomplete:\n%s", text)
	}
}

func TestFuzzThroughFacade(t *testing.T) {
	s := New(func() *uarch.SoC { return uarch.NewSoC(uarch.BoomConfig(), 1, nil, nil) })
	st := s.Fuzz(fuzz.SonarOptions(5))
	if len(st.PerIteration) != 5 {
		t.Fatalf("iterations = %d", len(st.PerIteration))
	}
	if p := s.Point(0); p == nil {
		t.Error("Point(0) nil")
	}
}

// Fuzz with Workers > 1 must run the sharded campaign the engine runs on
// freshly elaborated DUTs, complete and reproducible through the facade.
func TestFuzzParallelThroughFacade(t *testing.T) {
	mk := func() *uarch.SoC { return uarch.NewSoC(uarch.BoomConfig(), 1, nil, nil) }
	opt := fuzz.SonarOptions(12)
	opt.Workers = 3
	opt.BatchSize = 2
	a := New(mk).Fuzz(opt)
	b := fuzz.RunParallelExec(func() fuzz.Executor { return fuzz.NewDUT(mk()) }, opt)
	if len(a.PerIteration) != 12 || len(b.PerIteration) != 12 {
		t.Fatalf("iterations = %d / %d", len(a.PerIteration), len(b.PerIteration))
	}
	for i := range a.PerIteration {
		if a.PerIteration[i] != b.PerIteration[i] {
			t.Fatalf("facade campaign diverged at iteration %d", i)
		}
	}
}

// The primary DUT runs a campaign's first shard — also on the durability
// paths (checkpointing, resume) — so the pipeline counters `sonar -perf`
// prints belong to an execution that happened.
func TestPrimaryDUTRunsCampaign(t *testing.T) {
	mk := func() *uarch.SoC { return uarch.NewSoC(uarch.BoomConfig(), 1, nil, nil) }
	opt := fuzz.SonarOptions(6)
	opt.BatchSize = 2
	opt.MaxRounds = 1
	opt.Checkpoint = filepath.Join(t.TempDir(), "run.ckpt")
	s := New(mk)
	s.Fuzz(opt)
	if s.DUT.SoC.Cores[0].Perf().Cycles == 0 {
		t.Error("Fuzz with a checkpoint never executed on the primary DUT")
	}

	cp, err := fuzz.LoadCheckpoint(opt.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	r := New(mk)
	if _, err := r.Resume(cp.CampaignOptions(), cp); err != nil {
		t.Fatal(err)
	}
	if r.DUT.SoC.Cores[0].Perf().Cycles == 0 {
		t.Error("Resume never executed on the primary DUT")
	}
}

// A campaign with an attached Observer must publish the information-flow
// audit gauges (sonar_flow_*) alongside the identification gauges, and the
// cached audit must be clean on the bundled DUT.
func TestFlowGaugesPublished(t *testing.T) {
	s := New(func() *uarch.SoC { return uarch.NewSoC(uarch.BoomConfig(), 1, nil, nil) })
	opt := fuzz.SonarOptions(3)
	opt.Observer = obs.New()
	s.Fuzz(opt)

	au := s.Audit()
	if !au.OK() {
		t.Fatalf("audit not clean: %v", au.Err())
	}
	if s.Audit() != au {
		t.Error("Audit() not cached")
	}
	series, err := obs.ParseExposition(opt.Observer.Metrics.ExpositionText())
	if err != nil {
		t.Fatal(err)
	}
	if got := series[obs.MetricFlowSurface]; got != float64(len(au.Surface)) {
		t.Errorf("%s = %v, want %d", obs.MetricFlowSurface, got, len(au.Surface))
	}
	if got := series[obs.MetricFlowTainted]; got != float64(au.TaintedPoints()) {
		t.Errorf("%s = %v, want %d", obs.MetricFlowTainted, got, au.TaintedPoints())
	}
	if got := series[obs.MetricFlowTaintPairs]; got != float64(au.TaintPairPoints()) {
		t.Errorf("%s = %v, want %d", obs.MetricFlowTaintPairs, got, au.TaintPairPoints())
	}
	if _, ok := series[obs.MetricFlowFindings+`{severity="error"}`]; !ok {
		t.Errorf("%s{severity=\"error\"} absent from exposition", obs.MetricFlowFindings)
	}
}
