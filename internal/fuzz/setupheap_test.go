//go:build go1.24

package fuzz

import (
	"runtime"
	"testing"

	"sonar/internal/boom"
	"sonar/internal/hdl/gen"
	"sonar/internal/trace"
)

// These tests pin what set-up costs the heap. Object counts and allocation
// sizes depend on the Go runtime, so the file builds from go1.24 on and CI
// runs it on a go1.24 toolchain, the one the bounds were measured on. They
// read process-wide heap statistics, so they must not run in parallel with
// other tests.

// paperSetupObjects bounds the live objects paper BOOM's elaboration,
// analysis and instrumented DUT add to a collected heap. Records, names and
// point lists live in slabs and shared arrays, and the monitor registers
// one hook, so the set-up is a few hundred objects (about 250 on go1.24);
// one object per signal, mux, point or watched valid would be hundreds of
// thousands (469,206 before the slabs, counted the same way).
const paperSetupObjects = 5000

// Every collection of a campaign marks what set-up leaves live, so set-up
// must leave few objects whatever the design's size.
func TestPaperSetupLiveObjects(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	before := live()
	soc := boom.New()
	d := NewDUTWithAnalysis(soc, trace.Analyze(soc.Net))
	added := int64(live()) - int64(before)
	runtime.KeepAlive(d)
	t.Logf("paper set-up left %d live objects", added)
	if added > paperSetupObjects {
		t.Errorf("paper set-up left %d live objects, want at most %d", added, paperSetupObjects)
	}
}

// A small design's set-up must not allocate more than it did before set-up
// moved into slabs: with a tiny live heap, extra set-up bytes put a
// collection inside the set-up itself. The bounds are the bytes measured
// before the slabs (go1.24) plus 2%.
func TestSmallSetupAllocBytes(t *testing.T) {
	for _, c := range []struct {
		name  string
		bound uint64 // bytes
		setup func() any
	}{
		{"dual-lite factory and 4 DUTs", 3133 << 10 * 102 / 100, func() any {
			f := SharedAnalysisFactory(boom.NewDualLite)
			return [...]*DUT{f(), f(), f(), f()}
		}},
		{"gen seed 11 elaboration", 529 << 10 * 102 / 100, func() any {
			n, err := gen.New(gen.Config{Seed: 11, Nodes: 384, Regs: 16, Arbiters: 32, MaxWidth: 4, PrimShare: -1})
			if err != nil {
				t.Fatal(err)
			}
			return n
		}},
	} {
		// The fewest bytes of three runs: a stray allocation elsewhere in
		// the process can only add.
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			var a, b runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&a)
			runtime.KeepAlive(c.setup())
			runtime.ReadMemStats(&b)
			best = min(best, b.TotalAlloc-a.TotalAlloc)
		}
		t.Logf("%s: %d KiB", c.name, best>>10)
		if best > c.bound {
			t.Errorf("%s allocated %d KiB, want at most %d KiB", c.name, best>>10, c.bound>>10)
		}
	}
}
