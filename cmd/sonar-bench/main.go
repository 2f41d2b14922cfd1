// Command sonar-bench regenerates every table and figure of the paper's
// evaluation (§8) and prints them in order. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for paper-vs-measured numbers.
//
// Usage:
//
//	sonar-bench                    # all experiments at default scale
//	sonar-bench -iters 3000        # paper-scale campaigns (slower)
//	sonar-bench -only fig8,table3  # a subset
//	sonar-bench -only parallel -workers 8  # cross-core scaling of the sharded engine
//	sonar-bench -only fig8 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The parallel experiment measures the sharded coordinator's scaling
// across cores; it composes with the orthogonal per-core bit-parallel
// lane evaluator, which always runs a netlist executor's whole lane group
// per pass (docs/SIMULATOR.md) — the two multipliers and their CI gates
// are covered in docs/PERFORMANCE.md.
//
// The -metrics/-events/-progress flags attach the observability layer of
// docs/OBSERVABILITY.md to every campaign the experiments run: metrics
// aggregate across campaigns, the JSONL event stream concatenates them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"sonar/internal/experiments"
	"sonar/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sonar-bench: ")
	var (
		iters   = flag.Int("iters", 400, "campaign iterations for Figures 8/10/11 (paper: 3000)")
		trials  = flag.Int("trials", 7, "PoC trials per key bit for Table 3 / exploitation")
		workers = flag.Int("workers", 4, "shard count for the parallel-engine scaling experiment (cross-core; per-core lane batching is always the whole lane group)")
		only    = flag.String("only", "", "comma-separated subset: table1,fig6,fig7,table2,fig8,fig9,fig10,fig11,table3,exploit,mitigations,parallel,durability")

		metrics     = flag.String("metrics", "", "write Prometheus exposition text here after the run (- = stdout)")
		events      = flag.String("events", "", "stream campaign events to this JSONL file")
		progress    = flag.Int("progress", 0, "print a live progress line to stderr every N iterations (0 = off)")
		iterTimeout = flag.Duration("iter-timeout", 0, "per-iteration deadline for parallel experiment campaigns (0 = off)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
		}()
	}

	observer, finish, err := obs.CLIObserver(*metrics, *events, "", os.Stderr, *progress)
	if err != nil {
		log.Fatal(err)
	}
	experiments.SetObserver(observer)
	experiments.SetIterTimeout(*iterTimeout)
	defer func() {
		if err := finish(); err != nil {
			log.Fatal(err)
		}
	}()

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	run := func(key string, f func()) {
		if len(want) > 0 && !want[key] {
			return
		}
		start := time.Now()
		f()
		fmt.Printf("  [%s in %v]\n\n", key, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() { fmt.Print(experiments.Table1()) })
	run("fig6", func() { fmt.Print(experiments.RenderFigure6(experiments.Figure6())) })
	run("fig7", func() { fmt.Print(experiments.RenderFigure7(experiments.Figure7())) })
	run("table2", func() { fmt.Print(experiments.RenderTable2(experiments.Table2(0))) })
	run("fig8", func() { fmt.Print(experiments.RenderFigure8(experiments.Figure8(*iters))) })
	run("fig9", func() { fmt.Print(experiments.RenderFigure9(experiments.Figure9())) })
	run("fig10", func() { fmt.Print(experiments.RenderFigure10(experiments.Figure10(*iters))) })
	run("fig11", func() { fmt.Print(experiments.RenderFigure11(experiments.Figure11(*iters))) })
	run("table3", func() { fmt.Print(experiments.RenderTable3(experiments.Table3(*trials))) })
	run("exploit", func() { fmt.Print(experiments.RenderExploitation(experiments.Exploitation(1, *trials+2))) })
	run("mitigations", func() { fmt.Print(experiments.RenderMitigations(experiments.Mitigations(*trials))) })
	run("parallel", func() { fmt.Print(experiments.RenderParallel(experiments.Parallel(*iters, *workers))) })
	run("durability", func() { fmt.Print(experiments.RenderDurability(experiments.Durability(*iters, *workers))) })
}
