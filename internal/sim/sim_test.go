package sim

import (
	"strings"
	"testing"

	"sonar/internal/firrtl"
	"sonar/internal/hdl"
)

func mustParse(t *testing.T, src string) *hdl.Netlist {
	t.Helper()
	n, err := firrtl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestEvalCascadedMux(t *testing.T) {
	n := mustParse(t, `
circuit C :
  module C :
    input s0 : UInt<1>
    input s1 : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    input c : UInt<8>
    output o : UInt<8>
    o <= mux(s0, a, mux(s1, b, c))
`)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	must := func(e error) {
		if e != nil {
			t.Fatal(e)
		}
	}
	must(s.Poke("C.a", 10))
	must(s.Poke("C.b", 20))
	must(s.Poke("C.c", 30))
	s.Eval()
	if v, _ := s.Peek("C.o"); v != 30 {
		t.Errorf("no selects: o = %d, want 30", v)
	}
	must(s.Poke("C.s1", 1))
	s.Eval()
	if v, _ := s.Peek("C.o"); v != 20 {
		t.Errorf("s1: o = %d, want 20", v)
	}
	must(s.Poke("C.s0", 1))
	s.Eval()
	if v, _ := s.Peek("C.o"); v != 10 {
		t.Errorf("s0 priority: o = %d, want 10", v)
	}
}

func TestBufferIsORofSources(t *testing.T) {
	n := mustParse(t, `
circuit C :
  module C :
    input a : UInt<1>
    input b : UInt<1>
    wire v : UInt<1>
    v <= a
    v <= b
`)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	s.Eval()
	if v, _ := s.Peek("C.v"); v != 0 {
		t.Errorf("0|0 = %d", v)
	}
	if err := s.Poke("C.b", 1); err != nil {
		t.Fatal(err)
	}
	s.Eval()
	if v, _ := s.Peek("C.v"); v != 1 {
		t.Errorf("0|1 = %d", v)
	}
}

func TestRegisterLatchesAtTick(t *testing.T) {
	n := mustParse(t, `
circuit C :
  module C :
    input d : UInt<8>
    reg r : UInt<8>
    r <= d
`)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("C.d", 42); err != nil {
		t.Fatal(err)
	}
	s.Eval()
	if v, _ := s.Peek("C.r"); v != 0 {
		t.Errorf("register transparent before Tick: r = %d", v)
	}
	s.Tick()
	if v, _ := s.Peek("C.r"); v != 42 {
		t.Errorf("after Tick: r = %d, want 42", v)
	}
	if n.Cycle() != 1 {
		t.Errorf("cycle = %d, want 1", n.Cycle())
	}
}

func TestRegisterPipelineDelay(t *testing.T) {
	// Two back-to-back registers: a value takes two ticks to traverse.
	n := mustParse(t, `
circuit C :
  module C :
    input d : UInt<8>
    reg r1 : UInt<8>
    reg r2 : UInt<8>
    r1 <= d
    r2 <= r1
`)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("C.d", 7); err != nil {
		t.Fatal(err)
	}
	s.Tick()
	v1, _ := s.Peek("C.r1")
	v2, _ := s.Peek("C.r2")
	if v1 != 7 || v2 != 0 {
		t.Errorf("after 1 tick: r1=%d r2=%d, want 7 0", v1, v2)
	}
	s.Tick()
	if v, _ := s.Peek("C.r2"); v != 7 {
		t.Errorf("after 2 ticks: r2 = %d, want 7", v)
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	n := hdl.NewNetlist("C")
	m := n.Module("C")
	sel := m.Input("sel", 1)
	a := m.Wire("a", 8)
	b := m.Wire("b", 8)
	m.MuxInto(a, sel, b, b)
	m.MuxInto(b, sel, a, a)
	if _, err := New(n); err == nil {
		t.Fatal("combinational cycle not detected")
	} else if !strings.Contains(err.Error(), "combinational cycle") {
		t.Errorf("error = %v", err)
	}
}

func TestCycleThroughRegisterIsLegal(t *testing.T) {
	// A counter-ish feedback loop through a register must be accepted.
	n := mustParse(t, `
circuit C :
  module C :
    input en : UInt<1>
    input nxt : UInt<8>
    reg r : UInt<8>
    r <= mux(en, nxt, r)
`)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("C.nxt", 5); err != nil {
		t.Fatal(err)
	}
	s.Tick()
	if v, _ := s.Peek("C.r"); v != 0 {
		t.Errorf("hold: r = %d, want 0", v)
	}
	if err := s.Poke("C.en", 1); err != nil {
		t.Fatal(err)
	}
	s.Tick()
	if v, _ := s.Peek("C.r"); v != 5 {
		t.Errorf("load: r = %d, want 5", v)
	}
}

func TestPokePeekErrors(t *testing.T) {
	n := mustParse(t, `
circuit C :
  module C :
    input sel : UInt<1>
    output o : UInt<8>
    o <= mux(sel, UInt<8>(1), UInt<8>(2))
`)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("C.ghost", 1); err == nil {
		t.Error("poke of missing signal succeeded")
	}
	if _, err := s.Peek("C.ghost"); err == nil {
		t.Error("peek of missing signal succeeded")
	}
	if err := s.Poke("C._c1", 5); err == nil {
		t.Error("poke of constant succeeded")
	}
}

func TestRunAdvancesClock(t *testing.T) {
	n := mustParse(t, `
circuit C :
  module C :
    input d : UInt<1>
    reg r : UInt<1>
    r <= d
`)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	if n.Cycle() != 10 {
		t.Errorf("cycle = %d, want 10", n.Cycle())
	}
}

// Primitive operations parsed from FIRRTL evaluate with real semantics: a
// small comparator circuit computes eq/add/bits through the simulator.
func TestPrimopSemanticsEndToEnd(t *testing.T) {
	n := mustParse(t, `
circuit C :
  module C :
    input a : UInt<8>
    input b : UInt<8>
    node sum = add(a, b)
    node sameNibble = eq(bits(a, 3, 0), bits(b, 3, 0))
    output o : UInt<9>
    output m : UInt<1>
    o <= sum
    m <= sameNibble
`)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("C.a", 0x25); err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("C.b", 0x35); err != nil {
		t.Fatal(err)
	}
	s.Eval()
	if v, _ := s.Peek("C.o"); v != 0x5A {
		t.Errorf("add = %#x, want 0x5a", v)
	}
	if v, _ := s.Peek("C.m"); v != 1 {
		t.Errorf("nibble eq = %d, want 1", v)
	}
	if err := s.Poke("C.b", 0x36); err != nil {
		t.Fatal(err)
	}
	s.Eval()
	if v, _ := s.Peek("C.m"); v != 0 {
		t.Errorf("nibble eq = %d, want 0", v)
	}
}

// A registered accumulator built from primops: r <= add(r, one) counts up.
func TestPrimopAccumulator(t *testing.T) {
	n := mustParse(t, `
circuit C :
  module C :
    input en : UInt<1>
    reg r : UInt<8>
    node next = add(r, UInt<8>(1))
    r <= mux(en, next, r)
`)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Poke("C.en", 1); err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	if v, _ := s.Peek("C.r"); v != 5 {
		t.Errorf("counter = %d, want 5", v)
	}
	if err := s.Poke("C.en", 0); err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	if v, _ := s.Peek("C.r"); v != 5 {
		t.Errorf("counter moved while disabled: %d", v)
	}
}

// Reset restores the value plane through the watch hooks: a watcher on a
// simulator-driven signal sees the reset transition at cycle 0, so an
// incremental observer never has to re-read the plane after a reset.
func TestResetDispatchesWatchers(t *testing.T) {
	n := mustParse(t, `
circuit C :
  module C :
    input en : UInt<1>
    reg r : UInt<8>
    node next = add(r, UInt<8>(1))
    r <= mux(en, next, r)
    output o : UInt<1>
    o <= orr(r)
`)
	s, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	type change struct {
		old, new uint64
		cycle    int64
	}
	var seen []change
	n.MustSignal("C.r").Watch(func(_ *hdl.Signal, old, new uint64, cycle int64) {
		seen = append(seen, change{old, new, cycle})
	})
	if err := s.Poke("C.en", 1); err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	if len(seen) != 3 || seen[2] != (change{2, 3, 2}) {
		t.Fatalf("run transitions = %v, want three increments ending 2->3 at cycle 2", seen)
	}
	seen = seen[:0]
	s.Reset()
	if len(seen) != 1 || seen[0] != (change{3, 0, 0}) {
		t.Errorf("reset transitions = %v, want [{3 0 0}]", seen)
	}
	if v, _ := s.Peek("C.r"); v != 0 {
		t.Errorf("r after reset = %d, want 0", v)
	}
	if v, _ := s.Peek("C.en"); v != 0 {
		t.Errorf("unwatched input after reset = %d, want 0", v)
	}
	seen = seen[:0]
	s.Reset()
	if len(seen) != 0 {
		t.Errorf("reset of an already-reset simulator fired %v", seen)
	}
}
