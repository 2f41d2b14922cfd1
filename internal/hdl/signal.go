package hdl

import "fmt"

// Kind classifies a signal within a netlist.
type Kind uint8

const (
	// Wire is a combinationally driven signal.
	Wire Kind = iota
	// Reg is a clocked register.
	Reg
	// Const is a literal whose value never changes.
	Const
	// Input is a module input port.
	Input
	// Output is a module output port.
	Output
)

// String returns the FIRRTL-ish keyword for the kind.
func (k Kind) String() string {
	switch k {
	case Wire:
		return "wire"
	case Reg:
		return "reg"
	case Const:
		return "const"
	case Input:
		return "input"
	case Output:
		return "output"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// WatchFunc observes a value change on a signal. It is invoked synchronously
// from Signal.Set with the cycle at which the change occurred. A hook must
// not register or clear watch hooks.
type WatchFunc func(s *Signal, old, new uint64, cycle int64)

// Signal is a named, width-annotated value holder in a netlist.
//
// Signals are created through Netlist/Module builder methods and are unique
// by hierarchical name. The value itself lives in the owning netlist's dense
// value plane (Netlist.vals), indexed by the signal id; the Signal struct is
// the structural handle, a record in one of the netlist's signal slabs. The
// zero value is not usable.
type Signal struct {
	net     *Netlist
	name    string    // full hierarchical name, "." separated, in the netlist's name arena
	sources []*Signal // declared fan-in, used by validity tracing
	mask    uint64    // precomputed width mask
	id      int32
	// driver and prim are 1 + the id of the mux and of the prim driving
	// the signal, or 0 when none does.
	driver, prim int32
	// watch is 1 + the index in Netlist.watches of the signal's first watch
	// hook, or 0 when nothing watches it.
	watch int32
	width uint8 // 1..64 bits
	kind  Kind
	// muxData marks a signal consumed as the TVal or FVal of some mux: such
	// a signal cannot be the root of an n:1 cascade tree.
	muxData bool
}

// srcDedupThreshold is the fan-in size above which AddSource switches from a
// linear duplicate scan to the netlist's fan-in edge set. Small fan-ins stay
// out of the set: the common case is a handful of sources and the linear
// scan is cheaper there.
const srcDedupThreshold = 8

// Name returns the full hierarchical name of the signal.
func (s *Signal) Name() string { return s.name }

// ID returns the dense, elaboration-order id of the signal within its
// netlist: Netlist.Signals()[s.ID()] == s. Elaboration is deterministic, so
// ids are stable across independently elaborated instances of the same
// design and can be used to rebind per-netlist data (see trace.Analysis).
func (s *Signal) ID() int { return int(s.id) }

// Local returns the last path segment of the signal name (its name within
// the owning module).
func (s *Signal) Local() string {
	for i := len(s.name) - 1; i >= 0; i-- {
		if s.name[i] == '.' {
			return s.name[i+1:]
		}
	}
	return s.name
}

// ModulePath returns the hierarchical path of the owning module ("" for
// top-level signals).
func (s *Signal) ModulePath() string {
	for i := len(s.name) - 1; i >= 0; i-- {
		if s.name[i] == '.' {
			return s.name[:i]
		}
	}
	return ""
}

// Width returns the bit width of the signal.
func (s *Signal) Width() int { return int(s.width) }

// Kind returns the signal kind.
func (s *Signal) Kind() Kind { return s.kind }

// IsConst reports whether the signal is a literal constant.
func (s *Signal) IsConst() bool { return s.kind == Const }

// Value returns the current value of the signal.
func (s *Signal) Value() uint64 { return s.net.vals[s.id] }

// Mask returns the width mask of the signal (all valid bits set).
func (s *Signal) Mask() uint64 { return s.mask }

// Set updates the signal value, masking it to the signal width, and notifies
// watchers if the value changed. Setting a Const signal panics: constants are
// structural facts the analyses rely on.
//
// The watcher check is a single bit test in the netlist's watchBits bitset,
// so unwatched signals (the overwhelming majority) pay no indirection past
// the dense value plane.
//
//sonar:alloc-free
func (s *Signal) Set(v uint64) {
	if s.kind == Const {
		panic(fmt.Sprintf("hdl: Set on constant signal %s", s.name))
	}
	s.net.SetSlot(int(s.id), v&s.mask)
}

// SetBool sets the signal to 1 or 0.
func (s *Signal) SetBool(b bool) {
	if b {
		s.Set(1)
	} else {
		s.Set(0)
	}
}

// Bool reports whether the signal value is non-zero.
func (s *Signal) Bool() bool { return s.net.vals[s.id] != 0 }

// Watch registers fn to be called whenever the signal value changes, after
// the hooks registered on it before. Hooks live in one netlist-wide entry
// list, so registering one function on many signals allocates no object
// per signal.
func (s *Signal) Watch(fn WatchFunc) {
	n := s.net
	e := n.watchFree
	if e != 0 {
		n.watchFree = n.watches[e-1].next
		n.watches[e-1] = watchHook{fn: fn}
	} else {
		n.watches = append(n.watches, watchHook{fn: fn})
		e = int32(len(n.watches))
	}
	link := &s.watch
	for *link != 0 {
		link = &n.watches[*link-1].next
	}
	*link = e
	n.watchBits[uint(s.id)>>6] |= 1 << (uint(s.id) & 63)
	n.watchVersion++
	n.hooks++
}

// ClearWatchers removes all watch hooks from the signal.
func (s *Signal) ClearWatchers() {
	n := s.net
	for e := s.watch; e != 0; {
		h := &n.watches[e-1]
		next := h.next
		*h = watchHook{next: n.watchFree}
		n.watchFree = e
		n.hooks--
		e = next
	}
	s.watch = 0
	n.watchBits[uint(s.id)>>6] &^= 1 << (uint(s.id) & 63)
	n.watchVersion++
}

// NumWatchers returns the number of watch hooks registered on the signal.
func (s *Signal) NumWatchers() int {
	k := 0
	for e := s.watch; e != 0; e = s.net.watches[e-1].next {
		k++
	}
	return k
}

// Sources returns the declared fan-in of the signal.
func (s *Signal) Sources() []*Signal { return s.sources }

// AddSource declares src as fan-in of s. It is used by validity tracing when
// no same-prefix valid signal exists (paper Algorithm 1, lines 4-7).
//
// Duplicates are dropped. Above srcDedupThreshold the netlist's fan-in edge
// set takes over from the linear scan: wide reduction buffers (e.g. 64-bank
// dcache valids) would otherwise pay a quadratic elaboration cost.
func (s *Signal) AddSource(src *Signal) {
	if len(s.sources) <= srcDedupThreshold {
		for _, e := range s.sources {
			if e == src {
				return
			}
		}
		s.sources = append(s.sources, src)
		if len(s.sources) > srcDedupThreshold {
			if s.net.srcEdges == nil {
				s.net.srcEdges = make(map[srcEdge]struct{})
			}
			for _, e := range s.sources {
				s.net.srcEdges[srcEdge{s.id, e.id}] = struct{}{}
			}
		}
		return
	}
	edge := srcEdge{s.id, src.id}
	if _, dup := s.net.srcEdges[edge]; dup {
		return
	}
	s.net.srcEdges[edge] = struct{}{}
	s.sources = append(s.sources, src)
}

// String implements fmt.Stringer.
func (s *Signal) String() string {
	return fmt.Sprintf("%s %s : UInt<%d>", s.kind, s.name, s.width)
}
