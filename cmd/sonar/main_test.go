package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sonar/internal/boom"
	"sonar/internal/core"
	"sonar/internal/fuzz"
	"sonar/internal/obs"
)

// The acceptance criterion for -metrics/-events: a campaign run through the
// CLI's observer plumbing writes valid Prometheus exposition text and a JSONL
// event stream that round-trips exactly through obs.Event.
func TestMetricsAndEventsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "metrics.prom")
	eventsPath := filepath.Join(dir, "events.jsonl")

	observer, finish, err := obs.CLIObserver(metricsPath, eventsPath, "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 25
	s := core.New(boom.NewLite)
	opt := fuzz.SonarOptions(iters)
	opt.Workers = 2
	opt.BatchSize = 5
	opt.Observer = observer
	st := s.Fuzz(opt)
	if err := finish(); err != nil {
		t.Fatal(err)
	}

	// Metrics: the file must parse as exposition text and agree with Stats.
	text, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	series, err := obs.ParseExposition(string(text))
	if err != nil {
		t.Fatalf("invalid exposition text: %v", err)
	}
	last := st.PerIteration[len(st.PerIteration)-1]
	for name, want := range map[string]float64{
		obs.MetricIterations:      iters,
		obs.MetricTriggeredPoints: float64(last.CumPoints),
		obs.MetricCorpusSize:      float64(st.CorpusSize),
	} {
		if series[name] != want {
			t.Errorf("%s = %v, want %v", name, series[name], want)
		}
	}
	// The identification gauges ride along via core.Sonar.
	if series[obs.MetricMonitoredPoints] <= 0 {
		t.Errorf("%s = %v, want > 0", obs.MetricMonitoredPoints, series[obs.MetricMonitoredPoints])
	}

	// Events: every JSONL line must round-trip byte-identically, and the
	// stream must start and end a campaign.
	data, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) < iters+2 {
		t.Fatalf("%d event lines, want at least %d", len(lines), iters+2)
	}
	var iterDone int
	var lastEvent obs.Event
	for i, line := range lines {
		var e obs.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		again, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, again) {
			t.Fatalf("line %d does not round-trip:\n  file: %s\n  re-marshaled: %s", i+1, line, again)
		}
		if e.Kind == obs.IterationDone {
			iterDone++
		}
		lastEvent = e
	}
	var first obs.Event
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.Kind != obs.CampaignStart || first.Workers != 2 || first.Iterations != iters {
		t.Errorf("first event = %+v, want CampaignStart with workers=2 iterations=%d", first, iters)
	}
	if iterDone != iters {
		t.Errorf("%d IterationDone events, want %d", iterDone, iters)
	}
	if lastEvent.Kind != obs.CampaignEnd || lastEvent.CumPoints != last.CumPoints {
		t.Errorf("last event = %+v, want CampaignEnd with CumPoints=%d", lastEvent, last.CumPoints)
	}
}

// With every observability flag disabled the CLI plumbing must stay out of
// the way: nil Observer, no files.
func TestCLIObserverDisabled(t *testing.T) {
	observer, finish, err := obs.CLIObserver("", "", "", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if observer != nil {
		t.Error("disabled CLIObserver returned a non-nil Observer")
	}
	if err := finish(); err != nil {
		t.Errorf("noop finish: %v", err)
	}
}

// The end-of-campaign summary must handle a campaign that ran nothing
// (-iters 0) instead of indexing an empty PerIteration, and report a
// -max-rounds pause before the coverage lines.
func TestPrintSummary(t *testing.T) {
	var buf bytes.Buffer
	printSummary(&buf, &fuzz.Stats{}, 0, 0, "")
	if got, want := buf.String(), "no iterations executed\n"; got != want {
		t.Errorf("empty campaign summary = %q, want %q", got, want)
	}

	buf.Reset()
	st := &fuzz.Stats{
		PerIteration: []fuzz.IterStats{{CumPoints: 1}, {CumPoints: 3, CumTimingDiffs: 2}},
		CorpusSize:   4, ExecutedCycles: 900,
	}
	printSummary(&buf, st, 10, 1, "run.ckpt")
	want := "paused after 1 merge rounds at iteration 2/10; resume with -resume run.ckpt\n" +
		"triggered 3 contention points, 2 testcases exposed secret-dependent timing differences\n" +
		"corpus 4 seeds, 900 simulated cycles\n"
	if got := buf.String(); got != want {
		t.Errorf("paused campaign summary = %q, want %q", got, want)
	}
}

// Both DUT paths build their Options through campaignFlags.options: the
// shape comes from the flags, or from the checkpoint when resuming, and the
// operational flags apply on top in both cases.
func TestCampaignOptions(t *testing.T) {
	cp := &fuzz.Checkpoint{DUT: "gen7", Shape: fuzz.Shape{
		Iterations: 2000, Seed: 3, Retention: true, Selection: true,
		DirectedMutation: true, SecretB: 1, Workers: 2, BatchSize: 32,
	}}
	base := campaignFlags{
		iters: 300, seed: 9, workers: 4, random: true,
		ckptEvery: 100, iterTimeout: time.Second, maxRounds: 5,
	}
	for _, c := range []struct {
		name    string
		f       func(f *campaignFlags)
		cp      *fuzz.Checkpoint
		dut     string
		wantErr bool
		check   func(t *testing.T, opt fuzz.Options)
	}{
		{name: "fresh", dut: "gen7", check: func(t *testing.T, opt fuzz.Options) {
			if opt.Iterations != 300 || opt.Seed != 9 || opt.Workers != 4 || opt.Retention {
				t.Errorf("shape = %d iterations, seed %d, %d workers, retention %v; want the flags' random campaign",
					opt.Iterations, opt.Seed, opt.Workers, opt.Retention)
			}
			if opt.Checkpoint != "" {
				t.Errorf("Checkpoint = %q, want none", opt.Checkpoint)
			}
		}},
		{name: "fresh-behavioral", f: func(f *campaignFlags) {
			f.random, f.dual, f.keepFindings, f.checkpoint = false, true, 32, "run.ckpt"
		}, dut: "boom", check: func(t *testing.T, opt fuzz.Options) {
			if !opt.Retention || !opt.DualCore || opt.KeepFindings != 32 || opt.Checkpoint != "run.ckpt" {
				t.Errorf("retention %v, dual %v, keep %d, checkpoint %q; want the flags' guided dual campaign",
					opt.Retention, opt.DualCore, opt.KeepFindings, opt.Checkpoint)
			}
		}},
		{name: "resume", f: func(f *campaignFlags) { f.resume = "old.ckpt" }, cp: cp, dut: "gen7",
			check: func(t *testing.T, opt fuzz.Options) {
				if opt.Iterations != 2000 || opt.Seed != 3 || opt.Workers != 2 || opt.BatchSize != 32 || !opt.Retention {
					t.Errorf("shape = %d iterations, seed %d, %d workers, batch %d, retention %v; want the checkpoint's",
						opt.Iterations, opt.Seed, opt.Workers, opt.BatchSize, opt.Retention)
				}
				if opt.Checkpoint != "old.ckpt" {
					t.Errorf("Checkpoint = %q, want the resumed file", opt.Checkpoint)
				}
			}},
		{name: "resume-new-checkpoint", f: func(f *campaignFlags) { f.resume, f.checkpoint = "old.ckpt", "new.ckpt" },
			cp: cp, dut: "gen7", check: func(t *testing.T, opt fuzz.Options) {
				if opt.Checkpoint != "new.ckpt" {
					t.Errorf("Checkpoint = %q, want -checkpoint's file", opt.Checkpoint)
				}
			}},
		{name: "resume-other-dut", f: func(f *campaignFlags) { f.resume = "old.ckpt" }, cp: cp, dut: "gen8", wantErr: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := base
			if c.f != nil {
				c.f(&f)
			}
			opt, finish, err := f.options(c.cp, c.dut)
			if c.wantErr {
				if err == nil {
					t.Fatal("options accepted a checkpoint taken on another DUT")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := finish(); err != nil {
				t.Fatal(err)
			}
			if opt.CheckpointEvery != 100 || opt.IterTimeout != time.Second || opt.MaxRounds != 5 {
				t.Errorf("operational flags lost: checkpoint-every %d, iter-timeout %v, max-rounds %d",
					opt.CheckpointEvery, opt.IterTimeout, opt.MaxRounds)
			}
			c.check(t, opt)
		})
	}
}
