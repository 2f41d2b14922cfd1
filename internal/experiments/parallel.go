package experiments

import (
	"fmt"
	"strings"
	"time"

	"sonar/internal/boom"
	"sonar/internal/fuzz"
)

// ParallelResult compares a single-shard campaign against a sharded one at
// an equal iteration budget (the scaling experiment the paper's 80-core
// campaign host implies). It measures cross-core scaling only: the per-core
// bit-parallel lane evaluator, which runs a netlist executor's whole lane
// group per pass, is an orthogonal multiplier, gated separately by the
// CampaignLanes benchmarks (docs/PERFORMANCE.md).
type ParallelResult struct {
	Iterations int // iteration budget of both campaigns
	Workers    int // shard count of the sharded campaign
	// SerialNs and ParallelNs are the wall-clock times of the Workers=1 and
	// the Workers=N campaign.
	SerialNs, ParallelNs int64
	// SerialPoints and ParallelPoints are the final triggered-contention
	// counts of the two campaigns.
	SerialPoints, ParallelPoints int
}

// Speedup is the Workers=1 / Workers=N wall-clock ratio.
func (r ParallelResult) Speedup() float64 {
	if r.ParallelNs == 0 {
		return 0
	}
	return float64(r.SerialNs) / float64(r.ParallelNs)
}

// Parallel times a Workers=1 and a Workers=N campaign of the given length
// on the BOOM-like DUT (lite elaboration, so per-worker setup stays small
// against execution time).
func Parallel(iterations, workers int) ParallelResult {
	mkDUT := fuzz.SharedAnalysisFactory(boom.NewLite)
	mkExec := func() fuzz.Executor { return mkDUT() }
	timed := func(workers int) (int64, int) {
		opt := fuzz.SonarOptions(iterations)
		opt.Workers = workers
		start := time.Now()
		st := fuzz.RunParallelExec(mkExec, observed(opt))
		return time.Since(start).Nanoseconds(), st.PerIteration[len(st.PerIteration)-1].CumPoints
	}
	r := ParallelResult{Iterations: iterations, Workers: workers}
	r.SerialNs, r.SerialPoints = timed(1)
	r.ParallelNs, r.ParallelPoints = timed(workers)
	return r
}

// RenderParallel formats the scaling comparison.
func RenderParallel(r ParallelResult) string {
	var b strings.Builder
	b.WriteString("Campaign engine scaling: one shard vs sharded at equal budget\n")
	fmt.Fprintf(&b, "  workers=1: %d iterations in %8.1fms, %d points\n",
		r.Iterations, float64(r.SerialNs)/1e6, r.SerialPoints)
	fmt.Fprintf(&b, "  workers=%d: %d iterations in %8.1fms, %d points  (%.2fx speedup)\n",
		r.Workers, r.Iterations, float64(r.ParallelNs)/1e6, r.ParallelPoints, r.Speedup())
	return b.String()
}
