package firrtl

import (
	"testing"

	"sonar/internal/sim"
)

// FuzzParseChecked feeds arbitrary text to ParseChecked, the entry point
// for FIRRTL submitted to the campaign server. It must never panic, any
// source it accepts must build a lane simulator (the worker's FIRRTL
// path), and it must print to text that ParseChecked accepts again with
// the same signal and mux counts. The seed corpus (testdata/fuzz) holds
// the paper's Figure 3 design, an empty circuit, a declaration wider than
// 64 bits, a combinational cycle (rejected) and a loop through a register
// (accepted).
func FuzzParseChecked(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		n, err := ParseChecked(src)
		if err != nil {
			return
		}
		if _, err := sim.NewLanes(n); err != nil {
			t.Fatalf("ParseChecked accepted a netlist sim.NewLanes rejects: %v", err)
		}
		text := Print(n)
		back, err := ParseChecked(text)
		if err != nil {
			t.Fatalf("re-parse of printed netlist failed: %v\n%s", err, text)
		}
		if back.NumSignals() != n.NumSignals() || back.NumMuxes() != n.NumMuxes() {
			t.Fatalf("round trip has %d signals and %d muxes, want %d and %d\n%s",
				back.NumSignals(), back.NumMuxes(), n.NumSignals(), n.NumMuxes(), text)
		}
	})
}
