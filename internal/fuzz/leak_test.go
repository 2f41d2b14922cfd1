//go:build go1.24

package fuzz

import (
	"runtime"
	"testing"
	"weak"

	"sonar/internal/hdl"
	"sonar/internal/hdl/gen"
	"sonar/internal/trace"
	"sonar/internal/uarch"
)

// collected reports whether the object behind p is gone once nothing
// references it.
func collected[T any](p weak.Pointer[T]) bool {
	for i := 0; i < 3; i++ {
		runtime.GC()
		if p.Value() == nil {
			return true
		}
	}
	return false
}

// A campaign's shared analysis lives exactly as long as its factory and the
// executors built from it: dropping them frees the analysis and the
// netlist it was computed on.
func TestSharedAnalysisFreedWithItsExecutors(t *testing.T) {
	behavioural := func() weak.Pointer[trace.Analysis] {
		f := SharedAnalysisFactory(func() *uarch.SoC { return uarch.NewSoC(uarch.BoomConfig(), 1, nil, nil) })
		d := f()
		f()
		return weak.Make(d.Analysis)
	}()
	if !collected(behavioural) {
		t.Error("SharedAnalysisFactory: the shared analysis outlived its factory and DUTs")
	}

	// LaneDUTFactory analyzes a probe elaboration, the first one it asks
	// for; the analysis holds that netlist.
	var probe weak.Pointer[hdl.Netlist]
	func() {
		elabs := 0
		elab := func() (*hdl.Netlist, error) {
			n, err := gen.New(netTestCfg)
			if elabs++; elabs == 1 {
				probe = weak.Make(n)
			}
			return n, err
		}
		f, err := LaneDUTFactory(elab, netTestCycles, 8)
		if err != nil {
			t.Fatalf("LaneDUTFactory: %v", err)
		}
		f()
		f()
	}()
	if !collected(probe) {
		t.Error("LaneDUTFactory: the probe analysis outlived its factory and lane DUTs")
	}
}
