package experiments

import (
	"fmt"
	"strings"
	"time"

	"sonar/internal/boom"
	"sonar/internal/fuzz"
)

// ParallelResult compares the serial campaign engine against the sharded
// parallel engine at an equal iteration budget (the scaling experiment the
// paper's 80-core campaign host implies). It measures cross-core scaling
// only: the per-core bit-parallel lane evaluator (Options.Lanes) is an
// orthogonal multiplier, gated separately by the CampaignLanes benchmarks
// (docs/PERFORMANCE.md).
type ParallelResult struct {
	Iterations int // iteration budget of both campaigns
	Workers    int // shard count of the parallel campaign
	// SerialNs and ParallelNs are the wall-clock campaign times.
	SerialNs, ParallelNs int64
	// SerialPoints and ParallelPoints are the final triggered-contention
	// counts of the two campaigns.
	SerialPoints, ParallelPoints int
	// EquivalentAtOne reports whether a Workers=1 parallel campaign
	// reproduced the serial engine's CumPoints trajectory exactly — the
	// determinism contract.
	EquivalentAtOne bool
}

// Speedup is the serial/parallel wall-clock ratio.
func (r ParallelResult) Speedup() float64 {
	if r.ParallelNs == 0 {
		return 0
	}
	return float64(r.SerialNs) / float64(r.ParallelNs)
}

// Parallel times a serial and a sharded campaign of the given length on the
// BOOM-like DUT (lite elaboration, so per-worker setup stays small against
// execution time) and verifies the Workers=1 equivalence contract at a
// reduced budget.
func Parallel(iterations, workers int) ParallelResult {
	mkDUT := fuzz.SharedAnalysisFactory(boom.NewLite)
	mkExec := func() fuzz.Executor { return mkDUT() }

	opt := fuzz.SonarOptions(iterations)
	start := time.Now()
	serial := fuzz.Run(mkDUT(), observed(opt))
	serialNs := time.Since(start).Nanoseconds()

	popt := opt
	popt.Workers = workers
	start = time.Now()
	parallel := fuzz.RunParallelExec(mkExec, observed(popt))
	parallelNs := time.Since(start).Nanoseconds()

	// Contract check: Workers=1 must retrace the serial campaign.
	check := iterations
	if check > 100 {
		check = 100
	}
	copt := fuzz.SonarOptions(check)
	a := fuzz.Run(mkDUT(), copt)
	copt.Workers = 1
	b := fuzz.RunParallelExec(mkExec, copt)
	equivalent := len(a.PerIteration) == len(b.PerIteration)
	for i := 0; equivalent && i < len(a.PerIteration); i++ {
		equivalent = a.PerIteration[i] == b.PerIteration[i]
	}

	return ParallelResult{
		Iterations:      iterations,
		Workers:         workers,
		SerialNs:        serialNs,
		ParallelNs:      parallelNs,
		SerialPoints:    serial.PerIteration[len(serial.PerIteration)-1].CumPoints,
		ParallelPoints:  parallel.PerIteration[len(parallel.PerIteration)-1].CumPoints,
		EquivalentAtOne: equivalent,
	}
}

// RenderParallel formats the scaling comparison.
func RenderParallel(r ParallelResult) string {
	var b strings.Builder
	b.WriteString("Parallel campaign engine: serial vs sharded at equal budget\n")
	fmt.Fprintf(&b, "  serial:   %d iterations in %8.1fms, %d points\n",
		r.Iterations, float64(r.SerialNs)/1e6, r.SerialPoints)
	fmt.Fprintf(&b, "  workers=%d: %d iterations in %8.1fms, %d points  (%.2fx speedup)\n",
		r.Workers, r.Iterations, float64(r.ParallelNs)/1e6, r.ParallelPoints, r.Speedup())
	fmt.Fprintf(&b, "  workers=1 reproduces serial trajectory: %v\n", r.EquivalentAtOne)
	return b.String()
}
