//go:build go1.24

package fuzz

import (
	"testing"

	"sonar/internal/boom"
)

// iterationAllocBound bounds the heap objects one warm fuzzing iteration
// allocates: prepare, execute, observe, feed and the stats fold. The
// iteration itself allocates nothing; what remains is what the campaign
// keeps, amortized — a retained seed's copy in the worker's slab chunks,
// the corpus best a retention replaces, the growth of the seed and finding
// lists, and the finding copies of the fold. The counts depend on the
// runtime's slice growth, so the file builds from go1.24 on and CI runs it
// on a go1.24 toolchain, the one the bound was measured on.
const iterationAllocBound = 0.5

// TestIterationSteadyStateAllocFree runs warm batches through the one batch
// loop and the stats fold — on the behavioural lite core, on paper BOOM and
// on a netlist LaneDUT — and bounds the objects each iteration allocates.
func TestIterationSteadyStateAllocFree(t *testing.T) {
	for _, c := range []struct {
		name string
		exec func() Executor
		dual bool
	}{
		{"lite", liteExec, false},
		{"dual-lite", func() Executor { return NewDUT(boom.NewDualLite()) }, true},
		{"paper", func() Executor { return NewDUT(boom.New()) }, false},
		{"lanes", netExecFactory(t), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := SonarOptions(0)
			opt.DualCore = c.dual
			e := c.exec()
			w := newShardWorker(0, opt, 0, NewCorpus(), nil)
			acc := newStatsAccum(e.ContentionAnalysis(), opt)
			const batch = 32
			round := 0
			run := func() {
				round++
				outs := w.slotsFor(batch)
				w.runBatch(e, outs, groupWidth(e), round)
				w.takeNewSeeds()
				for i := range outs {
					acc.apply(&outs[i])
				}
			}
			// Warm the slots, the executor's arenas and the corpus past its
			// first retentions.
			for i := 0; i < 24; i++ {
				run()
			}
			perIter := testing.AllocsPerRun(16, run) / batch
			t.Logf("%.3f objects per iteration", perIter)
			if perIter > iterationAllocBound {
				t.Errorf("a warm iteration allocates %.3f objects, want at most %.2f", perIter, iterationAllocBound)
			}
		})
	}
}
