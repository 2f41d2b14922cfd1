package hdl

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSignalMasking(t *testing.T) {
	n := NewNetlist("t")
	s := n.Wire("w", 4)
	s.Set(0xff)
	if got := s.Value(); got != 0xf {
		t.Errorf("Set(0xff) on 4-bit wire = %#x, want 0xf", got)
	}
	if s.Mask() != 0xf {
		t.Errorf("Mask() = %#x, want 0xf", s.Mask())
	}
	w64 := n.Wire("w64", 64)
	w64.Set(^uint64(0))
	if w64.Value() != ^uint64(0) {
		t.Errorf("64-bit signal truncated: %#x", w64.Value())
	}
}

func TestSignalBoolHelpers(t *testing.T) {
	n := NewNetlist("t")
	s := n.Wire("b", 1)
	s.SetBool(true)
	if !s.Bool() {
		t.Error("SetBool(true) not observed")
	}
	s.SetBool(false)
	if s.Bool() {
		t.Error("SetBool(false) not observed")
	}
}

func TestConstSetPanics(t *testing.T) {
	n := NewNetlist("t")
	c := n.Const("c", 8, 42)
	if c.Value() != 42 {
		t.Fatalf("const value = %d, want 42", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Error("Set on const did not panic")
		}
	}()
	c.Set(1)
}

func TestWatcherFiresOnChangeOnly(t *testing.T) {
	n := NewNetlist("t")
	s := n.Wire("w", 8)
	var events []uint64
	var cycles []int64
	s.Watch(func(_ *Signal, old, new uint64, cycle int64) {
		events = append(events, new)
		cycles = append(cycles, cycle)
	})
	s.Set(1) // cycle 0
	s.Set(1) // no change, no event
	n.Step()
	s.Set(2) // cycle 1
	if len(events) != 2 || events[0] != 1 || events[1] != 2 {
		t.Fatalf("events = %v, want [1 2]", events)
	}
	if cycles[0] != 0 || cycles[1] != 1 {
		t.Errorf("cycles = %v, want [0 1]", cycles)
	}
	s.ClearWatchers()
	s.Set(3)
	if len(events) != 2 {
		t.Error("watcher fired after ClearWatchers")
	}
}

// A signal's hooks fire in registration order, and a cleared signal's
// entries are reused by later registrations without reaching any other
// signal's chain.
func TestWatchChainsAcrossClears(t *testing.T) {
	n := NewNetlist("t")
	a, b := n.Wire("a", 8), n.Wire("b", 8)
	var fired []string
	hook := func(name string) WatchFunc {
		return func(*Signal, uint64, uint64, int64) { fired = append(fired, name) }
	}
	a.Watch(hook("a1"))
	b.Watch(hook("b1"))
	a.Watch(hook("a2"))
	a.ClearWatchers()
	b.Watch(hook("b2"))
	a.Watch(hook("a3"))
	b.Watch(hook("b3"))
	a.Set(1)
	b.Set(1)
	if want := []string{"a3", "b1", "b2", "b3"}; !reflect.DeepEqual(fired, want) {
		t.Errorf("hooks fired %v, want %v", fired, want)
	}
	if a.NumWatchers() != 1 || b.NumWatchers() != 3 || n.NumWatchHooks() != 4 {
		t.Errorf("watchers a=%d b=%d total=%d, want 1, 3 and 4", a.NumWatchers(), b.NumWatchers(), n.NumWatchHooks())
	}
}

// Every signal of a netlist is found by its full name, across the name
// index's growth, and names that were never declared are not.
func TestSignalLookupByName(t *testing.T) {
	n := NewNetlist("t")
	var sigs []*Signal
	for i := 0; i < 3000; i++ {
		m := n.Module(fmt.Sprintf("m%d", i%7)).Child(fmt.Sprintf("c%d", i%11))
		sigs = append(sigs, m.Wire(fmt.Sprintf("w%d", i), 1+i%64))
	}
	for _, s := range sigs {
		if got, ok := n.Signal(s.Name()); !ok || got != s {
			t.Fatalf("Signal(%q) = %v, %v", s.Name(), got, ok)
		}
	}
	for _, name := range []string{"", "m0", "m0.c0", "m0.c0.w", "w0", "m0.c0.w0.x"} {
		if s, ok := n.Signal(name); ok {
			t.Errorf("Signal(%q) found %v", name, s)
		}
	}
}

// Restore writes the whole plane, then dispatches the watchers of exactly
// the watched signals whose value changed, in id order; every hook already
// sees the fully restored plane.
func TestRestoreDispatchesChangedWatchers(t *testing.T) {
	n := NewNetlist("t")
	a := n.Wire("a", 8)
	b := n.Wire("b", 8)
	c := n.Wire("c", 8)
	u := n.Wire("u", 8) // unwatched
	init := append([]uint64(nil), n.Values()...)
	var log []string
	for _, s := range []*Signal{a, b, c} {
		s.Watch(func(s *Signal, old, new uint64, cycle int64) {
			log = append(log, fmt.Sprintf("%s:%d->%d@%d u=%d", s.Name(), old, new, cycle, u.Value()))
		})
	}
	c.Set(7)
	a.Set(5)
	u.Set(9)
	n.Step()
	log = log[:0]
	n.Restore(init)
	want := []string{"a:5->0@1 u=0", "c:7->0@1 u=0"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("restore dispatched %v, want %v", log, want)
	}
	if !reflect.DeepEqual(n.Values(), init) {
		t.Errorf("plane after restore = %v, want %v", n.Values(), init)
	}
	defer func() {
		if recover() == nil {
			t.Error("Restore of a short plane did not panic")
		}
	}()
	n.Restore(init[:1])
}

func TestDuplicateNamePanics(t *testing.T) {
	n := NewNetlist("t")
	n.Wire("x", 1)
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	n.Wire("x", 2)
}

func TestBadWidthPanics(t *testing.T) {
	n := NewNetlist("t")
	for _, w := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d did not panic", w)
				}
			}()
			n.Wire("bad", w)
		}()
	}
}

func TestModuleScoping(t *testing.T) {
	n := NewNetlist("t")
	lsu := n.Module("lsu")
	s := lsu.Wire("ldq_idx", 5)
	if s.Name() != "lsu.ldq_idx" {
		t.Errorf("Name() = %q, want lsu.ldq_idx", s.Name())
	}
	if s.Local() != "ldq_idx" {
		t.Errorf("Local() = %q, want ldq_idx", s.Local())
	}
	if s.ModulePath() != "lsu" {
		t.Errorf("ModulePath() = %q, want lsu", s.ModulePath())
	}
	sub := lsu.Child("stq")
	s2 := sub.Reg("head", 3)
	if s2.Name() != "lsu.stq.head" {
		t.Errorf("nested Name() = %q", s2.Name())
	}
	if got, ok := n.Signal("lsu.stq.head"); !ok || got != s2 {
		t.Error("Signal lookup by full name failed")
	}
}

func TestMuxEval(t *testing.T) {
	n := NewNetlist("t")
	m := n.Module("top")
	sel := m.Wire("sel", 1)
	a := m.Wire("a", 8)
	b := m.Wire("b", 8)
	mx := m.Mux("out", sel, a, b)
	a.Set(7)
	b.Set(9)
	mx.Eval()
	if mx.Out.Value() != 9 {
		t.Errorf("sel=0: out = %d, want 9 (fval)", mx.Out.Value())
	}
	sel.Set(1)
	mx.Eval()
	if mx.Out.Value() != 7 {
		t.Errorf("sel=1: out = %d, want 7 (tval)", mx.Out.Value())
	}
}

func TestMuxDriverBookkeeping(t *testing.T) {
	n := NewNetlist("t")
	m := n.Module("top")
	sel := m.Wire("sel", 1)
	a := m.Wire("a", 8)
	b := m.Wire("b", 8)
	mx := m.Mux("out", sel, a, b)
	if d, ok := n.Driver(mx.Out); !ok || d != mx {
		t.Error("Driver(out) not recorded")
	}
	if !n.IsMuxDataInput(a) || !n.IsMuxDataInput(b) {
		t.Error("tval/fval not marked as mux data inputs")
	}
	if n.IsMuxDataInput(sel) {
		t.Error("sel wrongly marked as mux data input")
	}
	if n.IsMuxDataInput(mx.Out) {
		t.Error("root out wrongly marked as mux data input")
	}
}

func TestDoubleDrivePanics(t *testing.T) {
	n := NewNetlist("t")
	m := n.Module("top")
	sel := m.Wire("sel", 1)
	a := m.Wire("a", 8)
	b := m.Wire("b", 8)
	mx := m.Mux("out", sel, a, b)
	defer func() {
		if recover() == nil {
			t.Error("double drive did not panic")
		}
	}()
	n.Mux(mx.Out, sel, a, b)
}

func TestMuxTreeCascade(t *testing.T) {
	n := NewNetlist("t")
	m := n.Module("arb")
	ins := make([]*Signal, 4)
	sels := make([]*Signal, 3)
	for i := range ins {
		ins[i] = m.Wire(strings.Repeat("i", i+1), 8)
	}
	for i := range sels {
		sels[i] = m.Wire(string(rune('p'+i)), 1)
	}
	root := m.MuxTree("grant", sels, ins)
	if root.Out.Name() != "arb.grant" {
		t.Errorf("root out = %q, want arb.grant", root.Out.Name())
	}
	// A 4:1 tree is three cascaded 2:1 muxes.
	if n.NumMuxes() != 3 {
		t.Fatalf("NumMuxes = %d, want 3", n.NumMuxes())
	}
	// The root's FVal must be the output of another mux (the cascade).
	if _, ok := n.Driver(root.FVal); !ok {
		t.Error("root FVal not driven by a cascaded mux")
	}
	// Priority semantics: evaluate leaves-first (creation order is
	// tail-first, so evaluate in reverse creation order... simply fix by
	// evaluating all muxes until stable).
	for i, v := range []uint64{10, 20, 30, 40} {
		ins[i].Set(v)
	}
	evalStable(n)
	if root.Out.Value() != 40 {
		t.Errorf("no select asserted: out = %d, want 40 (last input)", root.Out.Value())
	}
	sels[1].Set(1)
	evalStable(n)
	if root.Out.Value() != 20 {
		t.Errorf("sel[1]: out = %d, want 20", root.Out.Value())
	}
	sels[0].Set(1)
	evalStable(n)
	if root.Out.Value() != 10 {
		t.Errorf("sel[0] has priority: out = %d, want 10", root.Out.Value())
	}
}

func TestMuxTreeArgValidation(t *testing.T) {
	n := NewNetlist("t")
	m := n.Module("arb")
	a := m.Wire("a", 8)
	defer func() {
		if recover() == nil {
			t.Error("MuxTree with 1 input did not panic")
		}
	}()
	m.MuxTree("g", nil, []*Signal{a})
}

func evalStable(n *Netlist) {
	for i := 0; i < len(n.Muxes())+1; i++ {
		for _, m := range n.Muxes() {
			m.Eval()
		}
	}
}

func TestModulePaths(t *testing.T) {
	n := NewNetlist("t")
	for _, path := range []string{"rob", "lsu", "frontend"} {
		m := n.Module(path)
		sel := m.Wire("sel", 1)
		a := m.Const("a", 8, 1)
		b := m.Const("b", 8, 2)
		m.Mux("out", sel, a, b)
	}
	paths := n.ModulePaths()
	want := []string{"frontend", "lsu", "rob"}
	if len(paths) != len(want) {
		t.Fatalf("ModulePaths = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Errorf("ModulePaths[%d] = %q, want %q", i, paths[i], want[i])
		}
	}
}

func TestAddSourceDeduplicates(t *testing.T) {
	n := NewNetlist("t")
	a := n.Wire("a", 8)
	b := n.Wire("b", 8)
	a.AddSource(b)
	a.AddSource(b)
	if len(a.Sources()) != 1 {
		t.Errorf("Sources() has %d entries, want 1", len(a.Sources()))
	}

	// A fan-in past the linear scan's threshold keeps first-declaration
	// order and drops repeats too.
	var srcs []*Signal
	for i := 0; i < 3*srcDedupThreshold; i++ {
		srcs = append(srcs, n.Wire(fmt.Sprintf("s%d", i), 1))
	}
	wide := n.Wire("wide", 1)
	for pass := 0; pass < 2; pass++ {
		for _, src := range srcs {
			wide.AddSource(src)
			b.AddSource(src)
		}
	}
	if !reflect.DeepEqual(wide.Sources(), srcs) || !reflect.DeepEqual(b.Sources(), srcs) {
		t.Errorf("wide fan-ins %v and %v, want %v", wide.Sources(), b.Sources(), srcs)
	}
}

// Property: Set always masks to width, for arbitrary widths and values.
func TestQuickSetMasks(t *testing.T) {
	i := 0
	f := func(v uint64, w uint8) bool {
		width := int(w%64) + 1
		n := NewNetlist("q")
		s := n.Wire("w", width)
		s.Set(v)
		i++
		return s.Value() == v&s.Mask()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a mux always outputs exactly one of its two inputs.
func TestQuickMuxSelectsOneInput(t *testing.T) {
	f := func(sel bool, tv, fv uint64) bool {
		n := NewNetlist("q")
		m := n.Module("m")
		s := m.Wire("sel", 1)
		a := m.Wire("a", 64)
		b := m.Wire("b", 64)
		mx := m.Mux("o", s, a, b)
		a.Set(tv)
		b.Set(fv)
		s.SetBool(sel)
		mx.Eval()
		if sel {
			return mx.Out.Value() == tv
		}
		return mx.Out.Value() == fv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLevelize pins the combinational schedule on a netlist with a mux
// reading one buffer twice, a loop through a register, a prim, and a
// buffer cycle. Nodes are indexed muxes (y, z), prims (r, q), then buffers
// in creation order (w, v, c1, c2, o). The FIFO queue starts with w and v,
// whose inputs no node drives; y waits for both of its reads of w; z reads
// r without an edge; c1, c2 and o never become ready.
func TestLevelize(t *testing.T) {
	n := NewNetlist("t")
	sel := n.Input("sel", 1)
	a := n.Input("a", 8)
	b := n.Input("b", 8)
	r := n.Reg("r", 8)
	w := n.Wire("w", 8)
	v := n.Wire("v", 1)
	y := n.Wire("y", 8)
	z := n.Wire("z", 8)
	q := n.Wire("q", 8)
	c1 := n.Wire("c1", 8)
	c2 := n.Wire("c2", 8)
	o := n.Output("o", 8)
	n.Const("k", 8, 3).AddSource(a) // a constant is never a node
	w.AddSource(a)
	w.AddSource(b)
	v.AddSource(sel)
	n.Mux(y, sel, w, w)
	n.Mux(z, v, r, y)
	n.Prim(r, "add", []*Signal{z, b}, nil)
	n.Prim(q, "and", []*Signal{z, a}, nil)
	c1.AddSource(q)
	c1.AddSource(c2)
	c2.AddSource(c1)
	o.AddSource(c2)

	order, cyclic := n.Levelize()
	names := func(nodes []Node) string {
		var s []string
		for _, nd := range nodes {
			kind := "buf"
			switch {
			case nd.Mux != nil:
				kind = "mux"
			case nd.Prim != nil:
				kind = "prim"
			}
			s = append(s, kind+":"+nd.Out.Name())
		}
		return strings.Join(s, " ")
	}
	if got, want := names(order), "buf:w buf:v mux:y mux:z prim:r prim:q"; got != want {
		t.Errorf("order = %s, want %s", got, want)
	}
	if got, want := names(cyclic), "buf:c1 buf:c2 buf:o"; got != want {
		t.Errorf("cyclic = %s, want %s", got, want)
	}
	if got := order[2].In; !reflect.DeepEqual(got, []*Signal{sel, w, w}) {
		t.Errorf("mux y inputs = %v, want [sel w w]", got)
	}
	if got := order[1].In; !reflect.DeepEqual(got, []*Signal{sel}) {
		t.Errorf("buffer v inputs = %v, want [sel]", got)
	}
}
