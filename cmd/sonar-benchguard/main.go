// Command sonar-benchguard is the CI perf-regression gate: it compares a
// BENCH_campaign.json produced by the campaign benchmarks (go test
// -bench=Campaign) against the committed BENCH_baseline.json and fails on
// gross regressions.
//
// The committed baseline is deliberately conservative — well below the
// throughput measured on a development machine — and the comparison adds a
// further -factor (default 2x) margin on top, so the gate only trips on
// order-of-magnitude regressions (an accidentally quadratic hot path, a
// reintroduced per-iteration allocation storm), never on runner jitter.
// Throughput must not fall below baseline/factor; allocations per iteration
// must not exceed baseline*factor.
//
// The benchmarks record each entry's median over its samples (-count N)
// together with the sample range (<metric>_min, <metric>_max). The gate
// compares the median and prints the range; a floor or ceiling that lies
// inside the range is flagged, since a single sample could land on either
// side of it.
//
// The gate also enforces parallel-scaling efficiency: every
// CampaignParallelN entry in the current file records its throughput ratio
// over CampaignParallel1 (scaling_vs_parallel1) and the runner's effective
// core count (cores). N-worker throughput must reach at least
// -scaling-efficiency × min(N, cores) × the 1-worker throughput, so a
// regression back to flat scaling — the coordinator merge barrier
// serializing the whole campaign — fails CI even when absolute throughput
// stays above the floor. Entries measured on a single-core runner (or
// files from before cores was recorded) skip the check: there is no
// parallelism to lose.
//
// A second run-property gate covers the bit-parallel evaluator: the
// CampaignLanes64 entry records its cycle throughput over CampaignLanes1
// from the same run (lanes_speedup), and the gate requires at least
// -lane-speedup (default 4x) — the 64-testcases-per-word evaluator must
// actually outrun 64 scalar replays of the same workload, or the lane
// engine has regressed to scalar spill. The CampaignNetlistLanes pair is
// gated the same way at -campaign-lane-speedup (default 8x): a full
// netlist-backed fuzzing campaign at Lanes=64 must outrun the same
// campaign at Lanes=1, so the evaluator win survives end-to-end campaign
// overhead. Files without lane entries skip the checks — unless the
// baseline entry records lanes_speedup, in which case a current entry
// missing the metric fails (metric parity: a silently dropped recording
// must not pass the gate).
//
// Usage:
//
//	go test -run '^$' -bench Campaign -benchtime 1x -count 5 .
//	go run ./cmd/sonar-benchguard -current BENCH_campaign.json
//
// See docs/PERFORMANCE.md for the file format and how the numbers are
// measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// row is one decoded benchmark entry: metric name → value. Decoding into a
// plain map rather than a struct keeps "metric absent from the file"
// distinguishable from "metric measured as zero" — a current file that
// silently dropped allocs_per_iter must fail the gate, not sail through a
// 0 <= ceiling comparison. Metrics the baseline itself omits are not
// checked.
type row map[string]float64

// checkedMetrics are the metrics the gate enforces, with their direction:
// floor metrics must not fall below baseline/factor, ceiling metrics must
// not exceed baseline*factor.
var checkedMetrics = []struct {
	name  string
	floor bool
}{
	{"iters_per_sec", true},
	{"allocs_per_iter", false},
}

// load reads one sonar-bench -json output file into its metric rows.
func load(path string) map[string]row {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var m map[string]row
	if err := json.Unmarshal(data, &m); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return m
}

// parallelWorkers extracts N from a CampaignParallelN entry name, or 0.
func parallelWorkers(name string) int {
	s, ok := strings.CutPrefix(name, "CampaignParallel")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0
	}
	return n
}

// checkScaling enforces the parallel-scaling efficiency floor on the
// current results (the baseline has no say: scaling is a property of the
// run and its runner). It returns false on a violation.
func checkScaling(cur map[string]row, efficiency float64) bool {
	base, ok := cur["CampaignParallel1"]
	if !ok || base["iters_per_sec"] == 0 {
		fmt.Println("skip scaling: no CampaignParallel1 entry to scale against")
		return true
	}
	names := make([]string, 0, len(cur))
	for name := range cur {
		if parallelWorkers(name) > 1 {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	ok = true
	for _, name := range names {
		c := cur[name]
		workers := parallelWorkers(name)
		cores := int(c["cores"])
		expected := workers
		if cores < expected {
			expected = cores
		}
		if expected <= 1 {
			fmt.Printf("skip %-20s scaling unmeasurable on this runner (%d core(s))\n", name, cores)
			continue
		}
		ratio := c["scaling_vs_parallel1"]
		if ratio == 0 {
			ratio = c["iters_per_sec"] / base["iters_per_sec"]
		}
		floor := efficiency * float64(expected)
		status := "ok  "
		if ratio < floor {
			status = "FAIL"
			ok = false
		}
		fmt.Printf("%s %-20s %5.2fx vs Parallel1 (floor %.2fx = %.0f%% of min(%d workers, %d cores))\n",
			status, name, ratio, floor, 100*efficiency, workers, cores)
	}
	return ok
}

// checkLanes enforces one lane-speedup floor on the current results: wide's
// lanes_speedup — its cycles_per_sec over the same run's scalar entry,
// re-derived from those entries when neither file records the field — must
// reach minSpeedup. The ratio itself is a property of the run, not the
// baseline; the baseline's only say is metric parity: a baseline entry that
// records lanes_speedup pins the metric's presence, so a current file whose
// entry silently dropped it fails instead of sailing through on a
// re-derivation (the recording pipeline broke, which is itself a
// regression). It returns false on a violation.
func checkLanes(cur, base map[string]row, scalar, wide string, minSpeedup float64) bool {
	c, ok := cur[wide]
	if !ok {
		fmt.Printf("skip lanes: no %s entry to check\n", wide)
		return true
	}
	if b, inBase := base[wide]; inBase {
		if _, ok := b["lanes_speedup"]; ok {
			if _, ok := c["lanes_speedup"]; !ok {
				fmt.Printf("FAIL %-22s lanes_speedup present in baseline but missing from current results\n", wide)
				return false
			}
		}
	}
	ratio := c["lanes_speedup"]
	if ratio == 0 {
		if s, ok := cur[scalar]; ok && s["cycles_per_sec"] > 0 {
			ratio = c["cycles_per_sec"] / s["cycles_per_sec"]
		}
	}
	if ratio == 0 {
		fmt.Printf("FAIL %-22s no lanes_speedup recorded and no %s to derive it from\n", wide, scalar)
		return false
	}
	status := "ok  "
	if ratio < minSpeedup {
		status = "FAIL"
	}
	fmt.Printf("%s %-22s %5.2fx cycles/sec vs %s (floor %.2fx)\n",
		status, wide, ratio, scalar, minSpeedup)
	return ratio >= minSpeedup
}

// checkFloors enforces the per-entry gate against the baseline: every
// baseline entry must be present in the current results (read from curPath,
// named in messages), carry every checked metric the baseline records, keep
// floor metrics at or above baseline/factor and ceiling metrics at or below
// baseline*factor. It returns false on a violation.
func checkFloors(cur, base map[string]row, factor float64, curPath string) bool {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	ok := true
	for _, name := range names {
		b := base[name]
		c, inCur := cur[name]
		if !inCur {
			fmt.Printf("FAIL %-20s missing from %s\n", name, curPath)
			ok = false
			continue
		}
		var missing []string
		for _, m := range checkedMetrics {
			if _, inBase := b[m.name]; !inBase {
				continue
			}
			if _, inCur := c[m.name]; !inCur {
				missing = append(missing, m.name)
			}
		}
		if len(missing) > 0 {
			fmt.Printf("FAIL %-20s %s present in baseline but missing from %s\n",
				name, strings.Join(missing, ", "), curPath)
			ok = false
			continue
		}
		status := "ok  "
		var flagged []string
		for _, m := range checkedMetrics {
			bv := b[m.name]
			if bv == 0 {
				continue
			}
			limit := bv * factor
			if m.floor {
				limit = bv / factor
			}
			if m.floor && c[m.name] < limit || !m.floor && c[m.name] > limit {
				status = "FAIL"
				ok = false
			}
			if insideSpread(c, m.name, limit) {
				flagged = append(flagged, m.name)
			}
		}
		fmt.Printf("%s %-20s %9.0f iters/sec%s (floor %.0f)  %7.1f allocs/iter%s (ceil %.0f)\n",
			status, name, c["iters_per_sec"], spread(c, "iters_per_sec", "%.0f"), b["iters_per_sec"]/factor,
			c["allocs_per_iter"], spread(c, "allocs_per_iter", "%.1f"), b["allocs_per_iter"]*factor)
		for _, m := range flagged {
			fmt.Printf("warn %-20s %s limit lies inside the sample range: the verdict rests on the median alone\n", name, m)
		}
	}
	return ok
}

// spread formats an entry's recorded sample range of metric, or "" when
// the entry records none.
func spread(r row, metric, format string) string {
	lo, okLo := r[metric+"_min"]
	hi, okHi := r[metric+"_max"]
	if !okLo || !okHi {
		return ""
	}
	return fmt.Sprintf(" ["+format+".."+format+"]", lo, hi)
}

// insideSpread reports whether limit lies within the entry's recorded
// sample range of metric.
func insideSpread(r row, metric string, limit float64) bool {
	lo, okLo := r[metric+"_min"]
	hi, okHi := r[metric+"_max"]
	return okLo && okHi && lo <= limit && limit <= hi
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sonar-benchguard: ")
	var (
		current  = flag.String("current", "BENCH_campaign.json", "benchmark results to check")
		baseline = flag.String("baseline", "BENCH_baseline.json", "committed baseline to check against")
		factor   = flag.Float64("factor", 2, "allowed regression factor on top of the baseline margin")
		scaleff  = flag.Float64("scaling-efficiency", 0.75, "required CampaignParallelN/CampaignParallel1 throughput ratio, as a fraction of min(N, cores)")
		lanespd  = flag.Float64("lane-speedup", 4, "required CampaignLanes64/CampaignLanes1 cycle-throughput ratio")
		clanespd = flag.Float64("campaign-lane-speedup", 8, "required CampaignNetlistLanes64/CampaignNetlistLanes1 cycle-throughput ratio")
	)
	flag.Parse()
	cur, base := load(*current), load(*baseline)

	failed := !checkFloors(cur, base, *factor, *current)
	if !checkScaling(cur, *scaleff) {
		failed = true
	}
	if !checkLanes(cur, base, "CampaignLanes1", "CampaignLanes64", *lanespd) {
		failed = true
	}
	if !checkLanes(cur, base, "CampaignNetlistLanes1", "CampaignNetlistLanes64", *clanespd) {
		failed = true
	}
	if failed {
		log.Fatal("performance regression detected (see docs/PERFORMANCE.md)")
	}
	fmt.Println("all campaign benchmarks within budget")
}
