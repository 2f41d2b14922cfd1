// Command sonar runs the full Sonar pipeline against one of the bundled
// DUTs: contention-point identification and filtering, reqsIntvl-guided
// fuzzing, and dual-differential side-channel detection.
//
// Usage:
//
//	sonar [-dut boom|nutshell|gen:<seed>|firrtl:<path>] [-iters N] [-seed N] [-workers N] [-dual] [-random] [-v]
//
// Examples:
//
//	sonar -dut boom -iters 500          # guided campaign on BOOM
//	sonar -dut nutshell -random         # random-testing baseline
//	sonar -dut boom -dual -iters 200    # dual-core template (Figure 4b)
//	sonar -iters 3000 -workers 8        # sharded parallel campaign
//	sonar -dut gen:7                    # lane-parallel campaign on a generated netlist
//	sonar -dut firrtl:design.fir        # same, over a check-validated FIRRTL ingest
//
// Observability (see docs/OBSERVABILITY.md):
//
//	sonar -metrics metrics.prom -events events.jsonl  # file outputs
//	sonar -metrics - -progress 50                     # exposition on stdout, live line
//	sonar -metrics-addr :9090                         # live /metrics endpoint
//
// Durable campaigns (see docs/CAMPAIGNS.md):
//
//	sonar -iters 10000 -checkpoint run.ckpt           # periodic snapshots
//	sonar -resume run.ckpt                            # continue after a crash/kill
//	sonar -checkpoint run.ckpt -max-rounds 20         # time-sliced campaign
//	sonar -workers 8 -iter-timeout 30s                # abort+replay wedged iterations
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sonar/internal/boom"
	"sonar/internal/core"
	"sonar/internal/detect"
	"sonar/internal/firrtl"
	"sonar/internal/fuzz"
	"sonar/internal/hdl"
	"sonar/internal/hdl/gen"
	"sonar/internal/nutshell"
	"sonar/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sonar: ")
	var (
		dut     = flag.String("dut", "boom", "device under test: boom, nutshell, gen:<seed> (generated netlist), or firrtl:<path> (FIRRTL ingest)")
		iters   = flag.Int("iters", 300, "fuzzing iterations")
		seed    = flag.Int64("seed", 1, "campaign RNG seed")
		workers = flag.Int("workers", 1, "campaign shards, run on min(shards, GOMAXPROCS) DUTs, the first the primary DUT")
		dual    = flag.Bool("dual", false, "dual-core scenario (boom only)")
		random  = flag.Bool("random", false, "disable all guidance (random-testing baseline)")
		verbose = flag.Bool("v", false, "print every finding")
		perf    = flag.Bool("perf", false, "print pipeline performance counters of the last execution")
		save    = flag.String("save", "", "directory to export finding testcases into (Testcase.Marshal format)")
		replay  = flag.String("replay", "", "replay one exported testcase file instead of fuzzing")

		metrics     = flag.String("metrics", "", "write Prometheus exposition text here after the campaign (- = stdout)")
		metricsAddr = flag.String("metrics-addr", "", "serve live /metrics on this address during the campaign")
		events      = flag.String("events", "", "stream campaign events to this JSONL file")
		progress    = flag.Int("progress", 0, "print a live progress line to stderr every N iterations (0 = off)")

		checkpoint  = flag.String("checkpoint", "", "write periodic campaign checkpoints to this file (docs/CAMPAIGNS.md)")
		ckptEvery   = flag.Int("checkpoint-every", 500, "iterations between periodic checkpoints")
		resume      = flag.String("resume", "", "resume the campaign from this checkpoint file")
		iterTimeout = flag.Duration("iter-timeout", 0, "per-iteration deadline, from when an executor takes the batch; wedged batches are re-queued (0 = off)")
		maxRounds   = flag.Int("max-rounds", 0, "pause after N merge rounds, writing a checkpoint to resume from (0 = run to completion)")
	)
	flag.Parse()

	// A checkpoint pins the campaign shape, including the dual-core
	// template choice — load it before elaborating the DUT.
	var cp *fuzz.Checkpoint
	if *resume != "" {
		var err error
		if cp, err = fuzz.LoadCheckpoint(*resume); err != nil {
			log.Fatal(err)
		}
		*dual = cp.Shape.DualCore
	}

	f := campaignFlags{
		iters: *iters, seed: *seed, workers: *workers,
		random: *random, checkpoint: *checkpoint, ckptEvery: *ckptEvery,
		resume: *resume, iterTimeout: *iterTimeout, maxRounds: *maxRounds,
		metrics: *metrics, events: *events, metricsAddr: *metricsAddr,
		progress: *progress,
	}
	if strings.Contains(*dut, ":") {
		netlistCampaign(*dut, cp, f)
		return
	}

	var s *core.Sonar
	switch {
	case *dut == "boom" && *dual:
		s = core.New(boom.NewDual)
	case *dut == "boom":
		s = core.New(boom.New)
	case *dut == "nutshell" && *dual:
		log.Fatal("the NutShell model is single-core")
	case *dut == "nutshell":
		s = core.New(nutshell.New)
	default:
		log.Fatalf("unknown DUT %q (want boom or nutshell)", *dut)
	}

	fmt.Print(s.Identify())

	if *replay != "" {
		src, err := os.ReadFile(*replay)
		if err != nil {
			log.Fatal(err)
		}
		tc, err := fuzz.Unmarshal(string(src))
		if err != nil {
			log.Fatal(err)
		}
		exA := s.DUT.Execute(tc, 0)
		exB := s.DUT.Execute(tc, 1)
		fmt.Printf("replayed %s: %d/%d cycles under secret 0/1\n", *replay, exA.Cycles, exB.Cycles)
		if f := new(detect.Finding); detect.Analyze(f, exA.Log, exB.Log, exA.Snap, exB.Snap) {
			fmt.Printf("side channel reproduced:\n%s", f.String(s.DUT.Analysis))
		} else {
			fmt.Println("no secret-dependent timing difference on replay")
		}
		return
	}

	f.dual, f.keepFindings = *dual, 32
	opt, finish, err := f.options(cp, s.DUT.Analysis.Netlist.Name())
	if err != nil {
		log.Fatal(err)
	}

	var st *fuzz.Stats
	if cp != nil {
		fmt.Printf("resuming %s: %d/%d iterations done (round %d, %d corpus seeds)...\n",
			*resume, cp.Done, cp.Shape.Iterations, cp.Round, len(cp.Corpus.Seeds))
		if st, err = s.Resume(opt, cp); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("fuzzing %d iterations (retention=%v selection=%v directed=%v dual=%v workers=%d)...\n",
			opt.Iterations, opt.Retention || opt.Selection || opt.DirectedMutation,
			opt.Selection || opt.DirectedMutation, opt.DirectedMutation, opt.DualCore, *workers)
		st = s.Fuzz(opt)
	}
	if err := finish(); err != nil {
		log.Fatal(err)
	}
	printSummary(os.Stdout, st, opt.Iterations, opt.MaxRounds, opt.Checkpoint)

	if *perf {
		if opt.Workers > 1 {
			fmt.Println("\npipeline counters unavailable: shards run on a pool of DUTs")
		} else {
			fmt.Printf("\npipeline counters (last execution, core 0):\n%s", s.DUT.SoC.Cores[0].Perf())
		}
	}

	if len(st.Findings) == 0 {
		fmt.Println("no side channels detected")
		os.Exit(0)
	}
	fmt.Printf("\nimplicated channel families (§7.2 justification):\n%s",
		detect.RenderClasses(detect.Classify(st.Findings, st.Analysis)))
	if *save != "" {
		if err := os.MkdirAll(*save, 0o755); err != nil {
			log.Fatal(err)
		}
		for i, tc := range st.FindingSeeds {
			name := filepath.Join(*save, fmt.Sprintf("finding-%03d.s", i+1))
			if err := os.WriteFile(name, []byte(tc.Marshal()), 0o644); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("exported %d finding testcases to %s\n", len(st.FindingSeeds), *save)
	}

	fmt.Printf("\n%d retained findings (dual-differential verified):\n", len(st.Findings))
	for i, f := range st.Findings {
		if !*verbose && i >= 3 {
			fmt.Printf("... %d more (use -v)\n", len(st.Findings)-i)
			break
		}
		fmt.Printf("--- finding %d ---\n%s", i+1, f.String(st.Analysis))
	}
}

// campaignFlags carries the command-line flags that shape and run a
// campaign, on either DUT path. Only the behavioral path sets dual and
// keepFindings, and the other behavioral-only flags (-replay, -save, -perf,
// -v) stay in main: netlist campaigns exercise contention coverage and
// intervals, not commit-log findings.
type campaignFlags struct {
	iters        int
	seed         int64
	workers      int
	random       bool
	dual         bool
	keepFindings int
	checkpoint   string
	ckptEvery    int
	resume       string
	iterTimeout  time.Duration
	maxRounds    int
	metrics      string
	events       string
	metricsAddr  string
	progress     int
}

// options builds the Options of a campaign on the DUT named dut, with its
// observer and the observer's finish function. Resuming (cp non-nil), the
// checkpoint's shape overrides the shape flags — a different seed or
// strategy would break the bit-identity contract — and a checkpoint taken
// on another DUT is refused. The operational flags (-checkpoint,
// -checkpoint-every, -iter-timeout, -max-rounds) apply on top either way;
// a resumed campaign without -checkpoint keeps checkpointing to the file it
// resumed from.
func (f campaignFlags) options(cp *fuzz.Checkpoint, dut string) (fuzz.Options, func() error, error) {
	opt := fuzz.SonarOptions(f.iters)
	if f.random {
		opt = fuzz.RandomOptions(f.iters)
	}
	opt.Seed = f.seed
	opt.DualCore = f.dual
	opt.KeepFindings = f.keepFindings
	opt.Workers = f.workers
	opt.Checkpoint = f.checkpoint
	if cp != nil {
		if cp.DUT != dut {
			return opt, nil, fmt.Errorf("checkpoint %s was taken on DUT %q, -dut selects %q", f.resume, cp.DUT, dut)
		}
		opt = cp.CampaignOptions()
		opt.Checkpoint = cmp.Or(f.checkpoint, f.resume)
	}
	opt.CheckpointEvery = f.ckptEvery
	opt.IterTimeout = f.iterTimeout
	opt.MaxRounds = f.maxRounds
	observer, finish, err := obs.CLIObserver(f.metrics, f.events, f.metricsAddr, os.Stderr, f.progress)
	opt.Observer = observer
	return opt, finish, err
}

// netlistElab parses -dut specs of the form gen:<seed> (a generated design,
// internal/hdl/gen) or firrtl:<path> (a check-validated FIRRTL ingest) into
// a deterministic elaborator.
func netlistElab(spec string) (func() (*hdl.Netlist, error), error) {
	switch {
	case strings.HasPrefix(spec, "gen:"):
		seed, err := strconv.ParseInt(strings.TrimPrefix(spec, "gen:"), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed in -dut %q: %v", spec, err)
		}
		// A campaign-shaped design: arbiters give the contention-point
		// analysis something to monitor (gen's zero config has none).
		cfg := gen.Config{Seed: seed, Nodes: 96, Regs: 8, Arbiters: 4}
		return func() (*hdl.Netlist, error) { return gen.New(cfg) }, nil
	case strings.HasPrefix(spec, "firrtl:"):
		src, err := os.ReadFile(strings.TrimPrefix(spec, "firrtl:"))
		if err != nil {
			return nil, err
		}
		return func() (*hdl.Netlist, error) { return firrtl.ParseChecked(string(src)) }, nil
	}
	return nil, fmt.Errorf("unknown netlist DUT spec %q (want gen:<seed> or firrtl:<path>)", spec)
}

// netlistCampaign runs a lane-parallel fuzzing campaign over a netlist DUT:
// the design is compiled through sim's optimizing pipeline and whole lane
// groups of testcase pairs execute bit-parallel (docs/CAMPAIGNS.md).
func netlistCampaign(spec string, cp *fuzz.Checkpoint, f campaignFlags) {
	elab, err := netlistElab(spec)
	if err != nil {
		log.Fatal(err)
	}
	factory, err := fuzz.LaneDUTFactory(elab, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	// The probe reports the design, then runs as the campaign's first
	// executor, so a one-shard campaign elaborates and compiles it once.
	probe := factory().(*fuzz.LaneDUT)
	executors := fuzz.PrimaryThen(probe, factory)
	an := probe.ContentionAnalysis()
	cs := probe.CompileStats()
	fmt.Printf("%s: %d contention points monitored; optimizer kept %d nodes (%d eliminated, %d fused, %d collapsed, %d on the spill path)\n",
		an.Netlist.Name(), len(an.Monitored()), cs.Nodes, cs.Eliminated, cs.Fused, cs.Collapsed, cs.Spilled)

	opt, finish, err := f.options(cp, an.Netlist.Name())
	if err != nil {
		log.Fatal(err)
	}

	var st *fuzz.Stats
	if cp != nil {
		fmt.Printf("resuming %s: %d/%d iterations done (round %d, %d corpus seeds)...\n",
			f.resume, cp.Done, cp.Shape.Iterations, cp.Round, len(cp.Corpus.Seeds))
		if st, err = fuzz.ResumeExec(executors, opt, cp); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("fuzzing %d iterations over the netlist (%d-pair lane groups, workers=%d)...\n",
			opt.Iterations, probe.GroupWidth(), opt.Workers)
		st = fuzz.RunParallelExec(executors, opt)
	}
	if err := finish(); err != nil {
		log.Fatal(err)
	}
	printSummary(os.Stdout, st, opt.Iterations, opt.MaxRounds, opt.Checkpoint)
}

// printSummary writes the end-of-campaign summary both DUT paths share: the
// pause notice when -max-rounds stopped a checkpointed campaign short of its
// iteration budget, then the triggered-point and corpus lines, or a note
// that no iteration ran.
func printSummary(w io.Writer, st *fuzz.Stats, iters, maxRounds int, checkpoint string) {
	done := len(st.PerIteration)
	if maxRounds > 0 && done < iters && checkpoint != "" {
		fmt.Fprintf(w, "paused after %d merge rounds at iteration %d/%d; resume with -resume %s\n",
			maxRounds, done, iters, checkpoint)
	}
	if done == 0 {
		fmt.Fprintln(w, "no iterations executed")
		return
	}
	last := st.PerIteration[done-1]
	fmt.Fprintf(w, "triggered %d contention points, %d testcases exposed secret-dependent timing differences\n",
		last.CumPoints, last.CumTimingDiffs)
	fmt.Fprintf(w, "corpus %d seeds, %d simulated cycles\n", st.CorpusSize, st.ExecutedCycles)
}
