package firrtl

import (
	"strings"
	"testing"

	"sonar/internal/hdl"
)

// Figure 3 of the paper: the ldq_stq_idx contention point in BOOM's LSU,
// an n:1 selection implemented as cascaded 2:1 MUXes.
const fig3 = `
circuit Lsu :
  module Lsu :
    input io_ldq_valid : UInt<1>
    input io_ldq_bits_idx : UInt<5>
    input io_stq_valid : UInt<1>
    input io_stq_bits_idx : UInt<5>
    input io_fwd_valid : UInt<1>
    input io_fwd_bits_idx : UInt<5>
    input sel_ldq : UInt<1>
    input sel_stq : UInt<1>
    output ldq_stq_idx : UInt<5>
    ldq_stq_idx <= mux(sel_ldq, io_ldq_bits_idx, mux(sel_stq, io_stq_bits_idx, io_fwd_bits_idx))
`

func TestParseFigure3(t *testing.T) {
	n, err := Parse(fig3)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "Lsu" {
		t.Errorf("circuit name = %q, want Lsu", n.Name())
	}
	if n.NumMuxes() != 2 {
		t.Fatalf("NumMuxes = %d, want 2 (one cascade)", n.NumMuxes())
	}
	out := n.MustSignal("Lsu.ldq_stq_idx")
	root, ok := n.Driver(out)
	if !ok {
		t.Fatal("ldq_stq_idx not driven by a mux")
	}
	if root.Sel.Local() != "sel_ldq" {
		t.Errorf("root select = %q, want sel_ldq", root.Sel.Local())
	}
	inner, ok := n.Driver(root.FVal)
	if !ok {
		t.Fatal("root FVal not driven by the inner mux")
	}
	if inner.TVal.Local() != "io_stq_bits_idx" {
		t.Errorf("inner TVal = %q, want io_stq_bits_idx", inner.TVal.Local())
	}
}

func TestParseDeclarations(t *testing.T) {
	src := `
circuit C :
  module C :
    input a : UInt<8>
    output o : UInt<8>
    wire w : UInt<4>
    reg r : UInt<16>, clock
    skip
    o <= a
`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		kind  hdl.Kind
		width int
	}{
		{"C.a", hdl.Input, 8},
		{"C.o", hdl.Output, 8},
		{"C.w", hdl.Wire, 4},
		{"C.r", hdl.Reg, 16},
	}
	for _, c := range cases {
		s, ok := n.Signal(c.name)
		if !ok {
			t.Errorf("signal %s missing", c.name)
			continue
		}
		if s.Kind() != c.kind || s.Width() != c.width {
			t.Errorf("%s: kind=%v width=%d, want kind=%v width=%d",
				c.name, s.Kind(), s.Width(), c.kind, c.width)
		}
	}
	o := n.MustSignal("C.o")
	if len(o.Sources()) != 1 || o.Sources()[0].Local() != "a" {
		t.Errorf("o sources = %v, want [a]", o.Sources())
	}
}

func TestParseNodeWithPrimop(t *testing.T) {
	src := `
circuit C :
  module C :
    input a : UInt<8>
    input b : UInt<8>
    node x = or(a, b)
    node y = bits(x, 3, 0)
`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	x := n.MustSignal("C.x")
	// x aliases a temporary carrying the or(); fan-in must reach a and b.
	seen := collectLeafSources(x)
	if !seen["C.a"] || !seen["C.b"] {
		t.Errorf("x fan-in = %v, want to include a and b", seen)
	}
	y := n.MustSignal("C.y")
	if len(collectLeafSources(y)) == 0 {
		t.Error("y has no traced fan-in")
	}
}

func collectLeafSources(s *hdl.Signal) map[string]bool {
	seen := make(map[string]bool)
	var walk func(*hdl.Signal)
	walk = func(sig *hdl.Signal) {
		for _, src := range sig.Sources() {
			if len(src.Sources()) == 0 {
				seen[src.Name()] = true
			} else {
				walk(src)
			}
		}
	}
	walk(s)
	return seen
}

func TestParseLiteralsAndComments(t *testing.T) {
	src := `
circuit C : ; the circuit
  module C :
    input sel : UInt<1> ; select
    output o : UInt<8>
    o <= mux(sel, UInt<8>(200), UInt<8>(3))
`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	o := n.MustSignal("C.o")
	mx, ok := n.Driver(o)
	if !ok {
		t.Fatal("o not mux-driven")
	}
	if !mx.TVal.IsConst() || mx.TVal.Value() != 200 {
		t.Errorf("TVal = %v (%d), want const 200", mx.TVal.IsConst(), mx.TVal.Value())
	}
	if !mx.FVal.IsConst() || mx.FVal.Value() != 3 {
		t.Errorf("FVal = %v (%d), want const 3", mx.FVal.IsConst(), mx.FVal.Value())
	}
}

func TestParseMultipleModules(t *testing.T) {
	src := `
circuit Top :
  module Top :
    input a : UInt<1>
  module Sub :
    input a : UInt<1>
    output o : UInt<1>
    o <= a
`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Signal("Top.a"); !ok {
		t.Error("Top.a missing")
	}
	if _, ok := n.Signal("Sub.a"); !ok {
		t.Error("Sub.a missing")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no circuit", "module M :\n"},
		{"module before circuit", "module M :\n  input a : UInt<1>\n"},
		{"stmt outside module", "circuit C :\n  input a : UInt<1>\n"},
		{"bad width", "circuit C :\n  module C :\n    input a : UInt<0>\n"},
		{"huge width", "circuit C :\n  module C :\n    input a : UInt<99>\n"},
		{"undeclared ref", "circuit C :\n  module C :\n    output o : UInt<1>\n    o <= ghost\n"},
		{"mux arity", "circuit C :\n  module C :\n    input a : UInt<1>\n    output o : UInt<1>\n    o <= mux(a, a)\n"},
		{"unclosed paren", "circuit C :\n  module C :\n    input a : UInt<1>\n    node x = or(a\n"},
		{"garbage", "circuit C :\n  module C :\n    widget a : UInt<1>\n"},
		{"empty source", ""},
		{"missing colon decl", "circuit C :\n  module C :\n    input a UInt<1>\n"},
		{"node without eq", "circuit C :\n  module C :\n    node x or(a)\n"},
		{"duplicate decl", "circuit C :\n  module C :\n    input d : UInt<1>\n    wire d : UInt<1>\n"},
		{"node redeclares", "circuit C :\n  module C :\n    input a : UInt<1>\n    node a = not(a)\n"},
		{"two mux drivers", "circuit C :\n  module C :\n    input a : UInt<1>\n    output o : UInt<1>\n    o <= mux(a, a, a)\n    o <= mux(a, a, a)\n"},
		{"mux into constant", "circuit C :\n  module C :\n    input a : UInt<1>\n    node n = UInt<1>(0)\n    _c1 <= mux(a, a, a)\n"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: Parse succeeded, want error", c.name)
		}
	}
}

// Temporaries skip names the source declared itself, and a repeated
// module restarts no counter into a name it already used.
func TestParseTemporariesAvoidDeclaredNames(t *testing.T) {
	src := `
circuit C :
  module C :
    input a : UInt<4>
    wire _t1 : UInt<4>
    wire _c1 : UInt<4>
    node x = add(a, UInt<4>(1))
  module C :
    node y = add(a, UInt<4>(2))
`
	n, err := ParseChecked(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"C._t2", "C._c2", "C._t3", "C._c3"} {
		if _, ok := n.Signal(name); !ok {
			t.Errorf("no temporary %s", name)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse("circuit C :\n  module C :\n    widget a : UInt<1>\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Errorf("error text %q lacks line info", pe.Error())
	}
}

func TestPrintRoundTrip(t *testing.T) {
	n1, err := Parse(fig3)
	if err != nil {
		t.Fatal(err)
	}
	text := Print(n1)
	n2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parsing printed form: %v\n%s", err, text)
	}
	if n2.NumMuxes() != n1.NumMuxes() {
		t.Errorf("round trip mux count = %d, want %d", n2.NumMuxes(), n1.NumMuxes())
	}
	out := n2.MustSignal("Lsu.ldq_stq_idx")
	if _, ok := n2.Driver(out); !ok {
		t.Error("round trip lost the mux driver of ldq_stq_idx")
	}
}

func TestPrintInlinesConstants(t *testing.T) {
	n := hdl.NewNetlist("K")
	m := n.Module("K")
	sel := m.Input("sel", 1)
	a := m.Const("ka", 8, 7)
	b := m.Const("kb", 8, 9)
	out := m.Output("o", 8)
	m.MuxInto(out, sel, a, b)
	text := Print(n)
	if !strings.Contains(text, "mux(sel, UInt<8>(7), UInt<8>(9))") {
		t.Errorf("constants not inlined:\n%s", text)
	}
	if strings.Contains(text, "wire ka") || strings.Contains(text, "const") {
		t.Errorf("constants should not be declared:\n%s", text)
	}
}

func TestParseNestedMuxTemporariesAreCascadable(t *testing.T) {
	src := `
circuit C :
  module C :
    input s0 : UInt<1>
    input s1 : UInt<1>
    input s2 : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    input c : UInt<8>
    input d : UInt<8>
    output o : UInt<8>
    o <= mux(s0, a, mux(s1, b, mux(s2, c, d)))
`
	n, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumMuxes() != 3 {
		t.Fatalf("NumMuxes = %d, want 3", n.NumMuxes())
	}
	// Exactly one mux output (the root driving o) is not consumed by
	// another mux.
	roots := 0
	for _, mx := range n.Muxes() {
		if !n.IsMuxDataInput(mx.Out) {
			roots++
			if mx.Out.Local() != "o" {
				t.Errorf("root out = %q, want o", mx.Out.Local())
			}
		}
	}
	if roots != 1 {
		t.Errorf("roots = %d, want 1", roots)
	}
}

func TestPrintRoundTripWithPrims(t *testing.T) {
	src := `
circuit C :
  module C :
    input a : UInt<8>
    input b : UInt<8>
    input sel : UInt<1>
    output o : UInt<9>
    node sum = add(a, b)
    node nib = bits(a, 3, 0)
    o <= mux(sel, sum, nib)
`
	n1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	text := Print(n1)
	n2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if len(n2.Prims()) != len(n1.Prims()) {
		t.Fatalf("prims %d != %d:\n%s", len(n2.Prims()), len(n1.Prims()), text)
	}
	// Semantics must survive: integer params included.
	foundBits := false
	for _, p := range n2.Prims() {
		if p.Op == "bits" {
			foundBits = true
			if len(p.IntParams) != 2 || p.IntParams[0] != 3 || p.IntParams[1] != 0 {
				t.Errorf("bits params lost: %v", p.IntParams)
			}
		}
	}
	if !foundBits {
		t.Error("bits prim lost in round trip")
	}
}
