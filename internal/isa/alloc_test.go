//go:build go1.24

package isa

import "testing"

// Assemble splits a line into a fixed array of fields and parses them in
// place, so a valid line allocates nothing: every op, rendered by
// Instr.String, assembles without a heap object. (Escape analysis decides
// this, so the file builds from go1.24 on, the toolchain CI runs it on.)
func TestAssembleAllocFree(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		line := (Instr{Op: op, Rd: 5, Rs1: 6, Rs2: 7, Imm: -12}).String()
		if _, err := Assemble(line); err != nil {
			t.Fatalf("Assemble(%q): %v", line, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = Assemble(line) }); n != 0 {
			t.Errorf("Assemble(%q) allocates %.1f objects, want 0", line, n)
		}
	}
}
