// Package sim is a cycle-accurate levelized simulator for pure hdl netlists,
// standing in for Verilator in the Sonar pipeline.
//
// It evaluates MUX-and-buffer datapaths: every 2:1 MUX computes
// out = sel ? tval : fval, and every wire with declared sources but no MUX
// driver acts as a reduction buffer (the OR of its sources — the composition
// rule validity signals follow, paper Algorithm 1 line 7). Registers latch
// their combinational input at the clock edge, so MUX- or buffer-driven
// registers behave as flip-flops, not transparent latches.
//
// The cycle-accurate processor models in packages boom and nutshell do not
// use this evaluator for their full behaviour; they drive their declared
// netlist signals directly. The evaluator exists so standalone circuits —
// FIRRTL snippets in tests, the Figure 3 example, instrumentation
// self-checks — can be simulated without a processor around them.
package sim

import (
	"fmt"

	"sonar/internal/hdl"
)

// cnode kinds (the optimizer-only kinds nkCopy/nkConst/nkChain are declared
// in optimize.go).
const (
	nkMux uint8 = iota
	nkPrim
	nkBuf
)

// cnode is a compiled combinational element. Input operands are precomputed
// dense signal ids into the netlist value plane, so Eval reads flat slices
// instead of chasing pointers or hashing map keys.
type cnode struct {
	kind     uint8
	regSlot  int32       // index into next/regs if out is a register, else -1
	out      *hdl.Signal // driven signal (Set dispatches watchers)
	sel      int32       // mux: select id; copy: source id
	tval     int32       // mux: true-value id
	fval     int32       // mux: false-value id; chain: fallback id
	prim     *hdl.Prim   // prim: computed via Prim.Compute
	bufIDs   []int32     // buf: source ids, OR-reduced
	constVal uint64      // const: the folded value
	chain    []int32     // chain: interleaved (sel, tval) ids, priority order
}

// Simulator evaluates a netlist cycle by cycle.
type Simulator struct {
	net   *hdl.Netlist
	order []cnode       // topological combinational order, compiled
	next  []uint64      // staged register next-values, indexed by reg slot
	regs  []*hdl.Signal // registers with combinational drivers, by reg slot
	init  []uint64      // construction-time value plane, for Reset
	stats CompileStats
}

// levelize reads the netlist's combinational schedule (hdl.Netlist.Levelize)
// for both the scalar and the lane compiler. It returns the nodes in
// evaluation order, the registers a node drives in signal creation order,
// and each signal's slot in that register list by signal id (-1 for none).
// It returns an error if the combinational logic contains a cycle that
// does not pass through a register.
func levelize(n *hdl.Netlist) (order []hdl.Node, drivenRegs []*hdl.Signal, regSlot []int32, err error) {
	order, cyclic := n.Levelize()
	if len(cyclic) > 0 {
		return nil, nil, nil, fmt.Errorf("sim: combinational cycle through %s", cyclic[0].Out.Name())
	}
	driven := make([]bool, n.NumSignals())
	for _, nd := range order {
		driven[nd.Out.ID()] = true
	}
	regSlot = make([]int32, n.NumSignals())
	for _, sig := range n.Signals() {
		regSlot[sig.ID()] = -1
		if sig.Kind() == hdl.Reg && driven[sig.ID()] {
			regSlot[sig.ID()] = int32(len(drivenRegs))
			drivenRegs = append(drivenRegs, sig)
		}
	}
	return order, drivenRegs, regSlot, nil
}

// New builds a simulator for the netlist with every signal kept (only the
// value-preserving constant-folding optimization runs). It returns an error
// if the combinational logic contains a cycle that does not pass through a
// register.
func New(n *hdl.Netlist) (*Simulator, error) {
	return NewOpt(n, CompileOptions{})
}

// NewOpt builds a simulator through the optimizing compile pipeline
// (docs/SIMULATOR.md "Optimizer passes"): constant folding always; with an
// explicit opts.Keep set also dead-node elimination, buffer-chain collapse,
// and mux-tree fusion. It returns an error if the combinational logic
// contains a cycle that does not pass through a register.
func NewOpt(n *hdl.Netlist, opts CompileOptions) (*Simulator, error) {
	order, drivenRegs, regSlot, err := levelize(n)
	if err != nil {
		return nil, err
	}
	ons, stats := optimize(order, opts)
	s := &Simulator{net: n, regs: drivenRegs, stats: stats}

	// Compile: precompute input ids and register staging slots so the per-
	// cycle Eval loop touches only flat slices.
	s.next = make([]uint64, len(s.regs))
	s.order = make([]cnode, len(ons))
	for i := range ons {
		nd := &ons[i]
		c := cnode{regSlot: regSlot[nd.out.ID()], out: nd.out}
		switch nd.kind {
		case nkMux:
			c.kind = nkMux
			c.sel = int32(nd.sel.ID())
			c.tval = int32(nd.tval.ID())
			c.fval = int32(nd.fval.ID())
		case nkPrim:
			c.kind = nkPrim
			c.prim = nd.prim
		case nkBuf:
			c.kind = nkBuf
			c.bufIDs = make([]int32, len(nd.srcs))
			for k, src := range nd.srcs {
				c.bufIDs[k] = int32(src.ID())
			}
		case nkCopy:
			c.kind = nkCopy
			c.sel = int32(nd.sel.ID())
		case nkConst:
			c.kind = nkConst
			c.constVal = nd.constVal
		case nkChain:
			c.kind = nkChain
			c.fval = int32(nd.fval.ID())
			c.chain = make([]int32, len(nd.chain))
			for k, sig := range nd.chain {
				c.chain[k] = int32(sig.ID())
			}
		}
		s.order[i] = c
	}
	s.init = append([]uint64(nil), n.Values()...)
	return s, nil
}

// Netlist returns the simulated netlist.
func (s *Simulator) Netlist() *hdl.Netlist { return s.net }

// Stats returns what the compile pipeline did to the netlist.
func (s *Simulator) Stats() CompileStats { return s.stats }

// Reset restores every signal to its construction-time value and rewinds the
// netlist clock to cycle 0, so one simulator instance executes back-to-back
// runs from identical state. The restore goes through Netlist.Restore, so
// every watched signal the reset changes dispatches its watch hooks, at
// cycle 0 (the clock is rewound first), after the whole plane is restored.
// Reset a monitor.Monitor before the simulator: its window must be shut
// during a batch restore.
func (s *Simulator) Reset() {
	s.net.SetCycle(0)
	s.net.Restore(s.init)
	for i := range s.next {
		s.next[i] = 0
	}
}

// Eval settles all combinational logic for the current cycle. Values
// destined for registers are staged in the next slice and only latched by
// Tick.
//
// Inputs are read straight from the netlist's dense value plane. Register
// reads always see the latched value — not the value staged this cycle —
// because staged values live in next until Tick copies them back through
// Signal.Set.
//
//sonar:alloc-free
func (s *Simulator) Eval() {
	vals := s.net.Values()
	for i := range s.order {
		nd := &s.order[i]
		var v uint64
		switch nd.kind {
		case nkMux:
			if vals[nd.sel] != 0 {
				v = vals[nd.tval]
			} else {
				v = vals[nd.fval]
			}
		case nkPrim:
			v = nd.prim.Compute()
		case nkBuf:
			for _, id := range nd.bufIDs {
				v |= vals[id]
			}
		case nkCopy:
			v = vals[nd.sel]
		case nkConst:
			v = nd.constVal
		default: // nkChain: priority order, entry 0 strongest
			v = vals[nd.fval]
			for k := len(nd.chain) - 2; k >= 0; k -= 2 {
				if vals[nd.chain[k]] != 0 {
					v = vals[nd.chain[k+1]]
				}
			}
		}
		if nd.regSlot >= 0 {
			s.next[nd.regSlot] = v & nd.out.Mask()
		} else {
			nd.out.Set(v)
		}
	}
}

// Tick settles combinational logic, latches registers, and advances the
// clock one cycle. Every register in regs is driven by exactly one node that
// Eval executes, so every next slot is freshly staged each cycle.
func (s *Simulator) Tick() {
	s.Eval()
	for i, r := range s.regs {
		r.Set(s.next[i])
	}
	s.net.Step()
}

// Run executes n clock cycles.
func (s *Simulator) Run(n int) {
	for i := 0; i < n; i++ {
		s.Tick()
	}
}

// Poke sets a signal by name.
func (s *Simulator) Poke(name string, v uint64) error {
	sig, ok := s.net.Signal(name)
	if !ok {
		return fmt.Errorf("sim: poke: no signal %q", name)
	}
	if sig.IsConst() {
		return fmt.Errorf("sim: poke: %q is a constant", name)
	}
	sig.Set(v)
	return nil
}

// Peek reads a signal by name.
func (s *Simulator) Peek(name string) (uint64, error) {
	sig, ok := s.net.Signal(name)
	if !ok {
		return 0, fmt.Errorf("sim: peek: no signal %q", name)
	}
	return sig.Value(), nil
}
