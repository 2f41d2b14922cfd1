package fuzz

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sonar/internal/boom"
	"sonar/internal/hdl"
	"sonar/internal/monitor"
	"sonar/internal/uarch"
)

// countingSink forwards pulses to the monitor and counts them, so a test
// can tell the direct path was taken.
type countingSink struct {
	*monitor.Monitor
	pulses int
}

func (s *countingSink) Pulse(target int32, cycle int64) {
	s.pulses++
	s.Monitor.Pulse(target, cycle)
}

// TestDirectPulseMatchesWatchDispatch pins the Pulser's direct drive to the
// watch-hook path it replaces: on generated testcases, a DUT whose pulses
// reach the monitor in one call each and a DUT whose monitored valids carry
// an extra no-op watcher — which sends every pulse through Signal.Set and
// the monitor's hooks — must produce identical snapshots, on the lite,
// dual-core lite and paper-scale BOOM.
func TestDirectPulseMatchesWatchDispatch(t *testing.T) {
	for _, tc := range []struct {
		name string
		soc  func() *uarch.SoC
		dual bool
	}{
		{"lite", boom.NewLite, false},
		{"dual-lite", boom.NewDualLite, true},
		{"paper", boom.New, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			factory := SharedAnalysisFactory(tc.soc)
			direct := factory()
			sink := &countingSink{Monitor: direct.Mon}
			direct.SoC.Pulser.Bind(sink)

			dispatched := factory()
			bypassed := &countingSink{Monitor: dispatched.Mon}
			dispatched.SoC.Pulser.Bind(bypassed)
			noop := func(*hdl.Signal, uint64, uint64, int64) {}
			for _, p := range dispatched.Analysis.Points {
				for _, r := range p.Requests {
					for _, v := range r.Valids {
						v.Watch(noop)
					}
				}
			}

			rng := rand.New(rand.NewSource(23))
			events := 0
			for i := 0; i < 6; i++ {
				testcase := Generate(rng, tc.dual)
				for secret := uint64(0); secret < 2; secret++ {
					label := fmt.Sprintf("testcase %d secret %d", i, secret)
					a := direct.Execute(testcase, secret)
					b := dispatched.Execute(testcase, secret)
					snapEqual(t, label, a.Snap, b.Snap)
					if !reflect.DeepEqual(a.Snap.Active(), b.Snap.Active()) {
						t.Fatalf("%s: active lists differ", label)
					}
					if a.Cycles != b.Cycles || !reflect.DeepEqual(a.Log, b.Log) {
						t.Fatalf("%s: runs diverge (%d vs %d cycles)", label, a.Cycles, b.Cycles)
					}
					for _, p := range a.Snap.Points {
						events += p.EventCount
					}
				}
			}
			if sink.pulses == 0 {
				t.Fatal("no pulse took the direct path")
			}
			if bypassed.pulses != 0 {
				t.Fatalf("%d pulses skipped the extra watcher", bypassed.pulses)
			}
			if events == 0 {
				t.Fatal("no monitor events: the comparison is vacuous")
			}
		})
	}
}
