package hdl

import (
	"fmt"
	"math/bits"
	"sort"
)

// Netlist is the flat structural registry of a design: every signal and
// every 2:1 MUX, indexed by hierarchical name. Its records live in slabs
// and its names in an arena (see store.go).
type Netlist struct {
	name   string
	byName nameIndex
	order  []*Signal
	muxes  []*Mux
	prims  []*Prim
	// The records behind order, muxes and prims, and the signal names.
	signalSlab slab[Signal]
	muxSlab    slab[Mux]
	primSlab   slab[Prim]
	names      nameArena
	// vals is the dense value plane: vals[s.id] holds the current value of
	// signal s. Keeping all signal state in one flat slice makes the
	// simulator's read path cache-friendly and index-addressable.
	vals []uint64
	// watches holds every signal's chain of watch hooks (see Signal.watch)
	// and, from watchFree (1 + an index, or 0), the chain of cleared
	// entries Watch reuses. watchBits is a bitset over ids with at least
	// one watcher, so the hot Set path answers "any watcher?" with a single
	// bit test.
	watches   []watchHook
	watchFree int32
	watchBits []uint64
	// watchVersion counts Watch and ClearWatchers calls, so a caller that
	// cached a decision about who observes a signal can tell it went stale.
	watchVersion uint64
	// hooks counts the watch hooks registered on all signals.
	hooks int
	// restored is Restore's scratch list of the watched signals it changed,
	// kept so a steady-state restore allocates nothing.
	restored []restoredValue
	// srcEdges holds the fan-in edges of the signals whose fan-in outgrew
	// AddSource's linear duplicate scan; it is nil until one does.
	srcEdges map[srcEdge]struct{}
	cycle    int64
}

// NewNetlist creates an empty netlist for a design with the given name.
func NewNetlist(name string) *Netlist {
	return &Netlist{name: name}
}

// Name returns the design name.
func (n *Netlist) Name() string { return n.name }

// Cycle returns the current simulation cycle of the netlist clock.
func (n *Netlist) Cycle() int64 { return n.cycle }

// Step advances the netlist clock by one cycle.
func (n *Netlist) Step() { n.cycle++ }

// SetCycle forces the clock, used when a netlist is re-run from zero.
func (n *Netlist) SetCycle(c int64) { n.cycle = c }

// NumSignals returns the number of signals in the netlist.
func (n *Netlist) NumSignals() int { return len(n.order) }

// NumMuxes returns the number of 2:1 MUX nodes in the netlist.
func (n *Netlist) NumMuxes() int { return len(n.muxes) }

// Signals returns all signals in creation order.
func (n *Netlist) Signals() []*Signal { return n.order }

// Muxes returns all 2:1 MUX nodes in creation order.
func (n *Netlist) Muxes() []*Mux { return n.muxes }

// SignalByID returns the signal with the given dense id (see Signal.ID).
func (n *Netlist) SignalByID(id int) *Signal { return n.order[id] }

// MuxByID returns the mux with the given dense id (see Mux.ID).
func (n *Netlist) MuxByID(id int) *Mux { return n.muxes[id] }

// Values returns the dense value plane of the netlist: Values()[s.ID()] is
// the current value of signal s. The slice is live — it reflects (and may be
// used alongside) Signal.Value, but writes must go through Signal.Set or
// Restore so masking and watcher dispatch still happen.
func (n *Netlist) Values() []uint64 { return n.vals }

// SetSlot is Signal.Set addressed by value slot: it writes v into
// Values()[id] and notifies the signal's watchers if the value changed.
// The caller resolves id once from a non-constant signal (Signal.ID) and
// passes v already masked to the signal's width (Signal.Mask), so the hot
// path never touches the Signal struct unless the slot is watched.
//
//sonar:alloc-free
func (n *Netlist) SetSlot(id int, v uint64) {
	old := n.vals[id]
	if v == old {
		return
	}
	n.vals[id] = v
	if n.watchBits[uint(id)>>6]&(1<<(uint(id)&63)) != 0 {
		n.dispatch(n.order[id], old, v)
	}
}

// dispatch calls s's watch hooks, in registration order, on a change from
// old to v.
//
//sonar:alloc-free
func (n *Netlist) dispatch(s *Signal, old, v uint64) {
	for e := s.watch; e != 0; e = n.watches[e-1].next {
		n.watches[e-1].fn(s, old, v, n.cycle)
	}
}

// NumWatchHooks returns the number of watch hooks registered across all
// signals.
func (n *Netlist) NumWatchHooks() int { return n.hooks }

// WatchVersion returns a counter that changes whenever a watch hook is
// added or cleared anywhere in the netlist. A caller that resolved which
// hooks observe a signal re-resolves when the version moves.
func (n *Netlist) WatchVersion() uint64 { return n.watchVersion }

// restoredValue is one watched signal Restore changed, with its old value.
type restoredValue struct {
	id  int
	old uint64
}

// Restore overwrites the whole value plane with vals (as captured from
// Values, so already masked), then notifies the watchers of every watched
// signal whose value changed, in signal id order, exactly as Signal.Set
// would. Watchers observe the fully restored plane. Unwatched signals cost
// one bulk copy; the watched ones are found by walking the watch bitset.
func (n *Netlist) Restore(vals []uint64) {
	if len(vals) != len(n.vals) {
		panic(fmt.Sprintf("hdl: Restore of %d values into %s with %d signals", len(vals), n.name, len(n.vals)))
	}
	n.restored = n.restored[:0]
	for w, word := range n.watchBits {
		for word != 0 {
			id := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if old := n.vals[id]; old != vals[id] {
				n.restored = append(n.restored, restoredValue{id: id, old: old})
			}
		}
	}
	copy(n.vals, vals)
	for _, r := range n.restored {
		n.dispatch(n.order[r.id], r.old, n.vals[r.id])
	}
}

// Signal looks a signal up by full hierarchical name.
func (n *Netlist) Signal(name string) (*Signal, bool) {
	if id, _ := n.byName.find(n.order, name); id >= 0 {
		return n.order[id], true
	}
	return nil, false
}

// MustSignal looks a signal up by name and panics if it does not exist.
func (n *Netlist) MustSignal(name string) *Signal {
	s, ok := n.Signal(name)
	if !ok {
		panic(fmt.Sprintf("hdl: no signal named %q in %s", name, n.name))
	}
	return s
}

// Driver returns the mux driving the given signal, if any.
func (n *Netlist) Driver(s *Signal) (*Mux, bool) {
	if s.net != n || s.driver == 0 {
		return nil, false
	}
	return n.muxes[s.driver-1], true
}

// IsMuxDataInput reports whether the signal is consumed as the TVal or FVal
// of any mux in the netlist.
func (n *Netlist) IsMuxDataInput(s *Signal) bool { return s.net == n && s.muxData }

// newSignal registers the signal path.local ("local" alone for an empty
// path), enforcing unique names and sane widths.
func (n *Netlist) newSignal(path, local string, width int, kind Kind, val uint64) *Signal {
	if path == "" && local == "" {
		panic("hdl: empty signal name")
	}
	name := n.names.join(path, local)
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("hdl: signal %s has unsupported width %d", name, width))
	}
	id, slot := n.byName.find(n.order, name)
	if id >= 0 {
		panic(fmt.Sprintf("hdl: duplicate signal name %q", name))
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = (1 << uint(width)) - 1
	}
	s := n.signalSlab.next()
	*s = Signal{net: n, id: int32(len(n.order)), name: name, width: uint8(width), mask: mask, kind: kind}
	n.order = append(n.order, s)
	n.byName.insert(n.order, name, s.id, slot)
	n.vals = append(n.vals, val&mask)
	if need := (len(n.order) + 63) / 64; need > len(n.watchBits) {
		n.watchBits = append(n.watchBits, 0)
	}
	return s
}

// Wire creates a top-level wire signal.
func (n *Netlist) Wire(name string, width int) *Signal {
	return n.newSignal("", name, width, Wire, 0)
}

// Reg creates a top-level register signal.
func (n *Netlist) Reg(name string, width int) *Signal {
	return n.newSignal("", name, width, Reg, 0)
}

// Const creates a top-level constant signal with a fixed value.
func (n *Netlist) Const(name string, width int, val uint64) *Signal {
	return n.newSignal("", name, width, Const, val)
}

// Input creates a top-level input port signal.
func (n *Netlist) Input(name string, width int) *Signal {
	return n.newSignal("", name, width, Input, 0)
}

// Output creates a top-level output port signal.
func (n *Netlist) Output(name string, width int) *Signal {
	return n.newSignal("", name, width, Output, 0)
}

// Mux creates a 2:1 mux driving out. A signal may be driven by at most one
// mux; out must not be a constant.
func (n *Netlist) Mux(out, sel, tval, fval *Signal) *Mux {
	if out.IsConst() {
		panic(fmt.Sprintf("hdl: mux driving constant %s", out.Name()))
	}
	if out.driver != 0 {
		panic(fmt.Sprintf("hdl: signal %s driven by two muxes", out.Name()))
	}
	m := n.muxSlab.next()
	*m = Mux{id: len(n.muxes), net: n, Out: out, Sel: sel, TVal: tval, FVal: fval}
	n.muxes = append(n.muxes, m)
	out.driver = int32(len(n.muxes))
	tval.muxData = true
	fval.muxData = true
	return m
}

// ModulePaths returns the sorted set of module paths that own at least one
// mux, useful for distribution reports (paper Figure 7).
func (n *Netlist) ModulePaths() []string {
	set := make(map[string]bool)
	for _, m := range n.muxes {
		set[m.ModulePath()] = true
	}
	paths := make([]string, 0, len(set))
	for p := range set { //sonar:nondeterministic-ok keys collected then sorted
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Module returns a builder scoped to the given hierarchical path. Nested
// paths are joined with ".".
func (n *Netlist) Module(path string) *Module {
	return &Module{net: n, path: path}
}

// Module is a name-scoped builder over a netlist. All signals created
// through it are prefixed with the module path.
type Module struct {
	net  *Netlist
	path string
}

// Path returns the hierarchical path of the module.
func (m *Module) Path() string { return m.path }

// Netlist returns the underlying netlist.
func (m *Module) Netlist() *Netlist { return m.net }

// Child returns a builder for a submodule of this module.
func (m *Module) Child(name string) *Module {
	if m.path == "" {
		return &Module{net: m.net, path: name}
	}
	return &Module{net: m.net, path: m.path + "." + name}
}

// Wire creates a wire in this module.
func (m *Module) Wire(name string, width int) *Signal {
	return m.net.newSignal(m.path, name, width, Wire, 0)
}

// Reg creates a register in this module.
func (m *Module) Reg(name string, width int) *Signal {
	return m.net.newSignal(m.path, name, width, Reg, 0)
}

// Const creates a constant in this module.
func (m *Module) Const(name string, width int, val uint64) *Signal {
	return m.net.newSignal(m.path, name, width, Const, val)
}

// Input creates an input port in this module.
func (m *Module) Input(name string, width int) *Signal {
	return m.net.newSignal(m.path, name, width, Input, 0)
}

// Output creates an output port in this module.
func (m *Module) Output(name string, width int) *Signal {
	return m.net.newSignal(m.path, name, width, Output, 0)
}

// Mux creates a 2:1 mux in this module driving a freshly created wire named
// name.
func (m *Module) Mux(name string, sel, tval, fval *Signal) *Mux {
	out := m.Wire(name, maxWidth(tval, fval))
	return m.net.Mux(out, sel, tval, fval)
}

// MuxInto creates a 2:1 mux driving an existing signal.
func (m *Module) MuxInto(out *Signal, sel, tval, fval *Signal) *Mux {
	return m.net.Mux(out, sel, tval, fval)
}

// MuxTree builds a cascaded n:1 selection over inputs using one select
// signal per level (priority encoding: sels[i] picks inputs[i], the final
// else branch is the last input). It returns the root mux whose Out carries
// the selected value, named name. len(sels) must be len(inputs)-1 and
// len(inputs) >= 2.
func (m *Module) MuxTree(name string, sels []*Signal, inputs []*Signal) *Mux {
	if len(inputs) < 2 || len(sels) != len(inputs)-1 {
		panic(fmt.Sprintf("hdl: MuxTree %s: %d inputs, %d selects", name, len(inputs), len(sels)))
	}
	// Build from the tail: acc = mux(sels[k], inputs[k], acc).
	acc := inputs[len(inputs)-1]
	var root *Mux
	for k := len(inputs) - 2; k >= 0; k-- {
		var out *Signal
		if k == 0 {
			out = m.Wire(name, maxWidth(inputs[k], acc))
		} else {
			out = m.Wire(fmt.Sprintf("%s_lvl%d", name, k), maxWidth(inputs[k], acc))
		}
		root = m.net.Mux(out, sels[k], inputs[k], acc)
		acc = out
	}
	return root
}

func maxWidth(a, b *Signal) int {
	if a.Width() > b.Width() {
		return a.Width()
	}
	return b.Width()
}
