package sim

import "sonar/internal/hdl"

// CompileOptions steers the optimizing compile pipeline shared by NewOpt and
// NewLanesOpt (docs/SIMULATOR.md "Optimizer passes").
type CompileOptions struct {
	// Keep lists the signals the caller will read, poke, or watch after
	// construction — monitored points' valid and data signals, probe taps,
	// peeked outputs. The destructive passes (dead-node elimination,
	// buffer-chain collapse, mux-tree fusion) preserve the cycle-by-cycle
	// values of kept signals, register state, and netlist inputs, but may
	// stop computing anything else: an eliminated signal's value is never
	// written again, so watchers installed on it never fire.
	//
	// A nil Keep keeps every signal: only the value-preserving constant-
	// folding pass runs, and the simulator behaves exactly like the
	// unoptimized compile (New / NewLanes).
	Keep []*hdl.Signal
}

// CompileStats reports what the compile pipeline did to a netlist — the
// counts the sonar_sim_* gauges publish (internal/obs).
type CompileStats struct {
	// Nodes is the number of compiled combinational nodes that survive.
	Nodes int
	// Eliminated is the number of dead/unwatched nodes removed outright.
	Eliminated int
	// Folded is the number of nodes reduced by constant folding (const-sel
	// muxes, same-input muxes, all-const buffers).
	Folded int
	// Collapsed is the number of single-use buffers spliced into their
	// consuming buffer's source list.
	Collapsed int
	// Fused is the number of interior muxes absorbed into priority-chain
	// superinstructions (one fused chain evaluates N muxes in one node).
	Fused int
	// Spilled is the number of surviving primitive-operation nodes — the
	// nodes the lane evaluator must run through the scalar spill path.
	Spilled int
}

// onode is an optimizer node: the intermediate representation between the
// netlist's levelized order (hdl.Netlist.Levelize) and the compiled
// cnode/lnode records. The optimizer rewrites kinds and operands in place
// and marks nodes dead; surviving nodes keep their original topological
// positions, which stays a valid evaluation order because every pass only
// ever makes a node depend on (transitive) operands of its original
// operands.
type onode struct {
	kind uint8
	out  *hdl.Signal
	// sel/tval/fval are the mux operands. nkCopy reuses sel as its source;
	// nkChain reuses fval as the chain's fallback.
	sel, tval, fval *hdl.Signal
	prim            *hdl.Prim
	srcs            []*hdl.Signal // buf sources
	constVal        uint64        // nkConst: the folded value, pre-masked
	// chain is the fused priority chain, interleaved (sel, tval) pairs in
	// priority order: entry 0 wins over entry 1, all entries win over the
	// fallback — the FVal-nested shape hdl.MuxTree emits.
	chain []*hdl.Signal
	dead  bool
}

// Additional compiled node kinds produced only by the optimizer (the base
// kinds nkMux/nkPrim/nkBuf are declared in sim.go).
const (
	nkCopy  uint8 = 3 + iota // out = src (a mux folded to one side)
	nkConst                  // out = constVal
	nkChain                  // out = priority chain over (sel, tval) pairs
)

func (nd *onode) eachInput(f func(*hdl.Signal)) {
	switch nd.kind {
	case nkMux:
		f(nd.sel)
		f(nd.tval)
		f(nd.fval)
	case nkPrim:
		for _, a := range nd.prim.Args {
			f(a)
		}
	case nkBuf:
		for _, s := range nd.srcs {
			f(s)
		}
	case nkCopy:
		f(nd.sel)
	case nkChain:
		for _, s := range nd.chain {
			f(s)
		}
		f(nd.fval)
	}
}

// optimize runs the compile pipeline over the levelized node order and
// returns the surviving optimizer nodes (original topological order) plus
// the pipeline's stats. With opts.Keep == nil only the value-preserving
// constant-folding pass runs; with an explicit keep set the destructive
// passes follow: dead-node elimination, buffer-chain collapse, and mux-tree
// fusion (docs/SIMULATOR.md documents what each pass may and may not
// change).
func optimize(order []hdl.Node, opts CompileOptions) ([]onode, CompileStats) {
	var stats CompileStats
	ons := make([]onode, len(order))
	for i, nd := range order {
		o := onode{out: nd.Out}
		switch {
		case nd.Mux != nil:
			o.kind = nkMux
			o.sel, o.tval, o.fval = nd.Mux.Sel, nd.Mux.TVal, nd.Mux.FVal
		case nd.Prim != nil:
			o.kind = nkPrim
			o.prim = nd.Prim
		default:
			o.kind = nkBuf
			o.srcs = nd.In
		}
		ons[i] = o
	}

	foldConstants(ons, &stats)
	if opts.Keep != nil {
		keep := make(map[*hdl.Signal]bool, len(opts.Keep))
		for _, s := range opts.Keep {
			keep[s] = true
		}
		eliminateDead(ons, keep, &stats)
		collapseBuffers(ons, keep, &stats)
		fuseMuxChains(ons, keep, &stats)
	}

	alive := ons[:0]
	for i := range ons {
		if !ons[i].dead {
			alive = append(alive, ons[i])
		}
	}
	stats.Nodes = len(alive)
	for i := range alive {
		if alive[i].kind == nkPrim {
			stats.Spilled++
		}
	}
	return alive, stats
}

// foldConstants is the value-preserving pass: muxes whose select is a
// compile-time constant become copies of the chosen input (or constants, if
// that input is itself constant), muxes whose branches are the same signal
// become copies, and buffers whose sources are all constant become
// constants. Folded constants propagate through combinational outputs —
// never through registers, whose latched value lags their driver by a cycle
// and starts at the construction-time value. A folded node still writes its
// output every Eval, so the fold is watcher-identical: the same value
// sequence reaches the same hooks, which is why this pass is safe even in
// keep-everything mode.
func foldConstants(ons []onode, stats *CompileStats) {
	constOf := make(map[*hdl.Signal]uint64)
	valOf := func(s *hdl.Signal) (uint64, bool) {
		if s.IsConst() {
			return s.Value(), true
		}
		v, ok := constOf[s]
		return v, ok
	}
	for i := range ons {
		nd := &ons[i]
		switch nd.kind {
		case nkMux:
			if sv, ok := valOf(nd.sel); ok {
				src := nd.fval
				if sv != 0 {
					src = nd.tval
				}
				if cv, ok := valOf(src); ok {
					nd.kind, nd.constVal = nkConst, cv&nd.out.Mask()
				} else {
					nd.kind, nd.sel = nkCopy, src
				}
				stats.Folded++
			} else if nd.tval == nd.fval {
				if cv, ok := valOf(nd.tval); ok {
					nd.kind, nd.constVal = nkConst, cv&nd.out.Mask()
				} else {
					nd.kind, nd.sel = nkCopy, nd.tval
				}
				stats.Folded++
			}
		case nkBuf:
			all := true
			var v uint64
			for _, s := range nd.srcs {
				cv, ok := valOf(s)
				if !ok {
					all = false
					break
				}
				v |= cv
			}
			if all {
				nd.kind, nd.constVal = nkConst, v&nd.out.Mask()
				stats.Folded++
			}
		case nkCopy:
			if cv, ok := valOf(nd.sel); ok {
				nd.kind, nd.constVal = nkConst, cv&nd.out.Mask()
				stats.Folded++
			}
		}
		if nd.kind == nkConst && nd.out.Kind() != hdl.Reg {
			constOf[nd.out] = nd.constVal
		}
	}
}

// eliminateDead removes every node outside the live closure of the keep set.
// The closure walks backward from the kept signals' producers and from every
// register-driving node — register state always keeps evolving, so resumed
// or long-running campaigns never diverge — following combinational operand
// edges (register operands terminate a walk: their drivers are roots
// already).
func eliminateDead(ons []onode, keep map[*hdl.Signal]bool, stats *CompileStats) {
	producer := make(map[*hdl.Signal]int, len(ons))
	for i := range ons {
		producer[ons[i].out] = i
	}
	live := make([]bool, len(ons))
	var stack []int
	mark := func(s *hdl.Signal) {
		if p, ok := producer[s]; ok && !live[p] {
			live[p] = true
			stack = append(stack, p)
		}
	}
	for s := range keep { //sonar:nondeterministic-ok marking order cannot change the live set (a monotone fixpoint), and surviving nodes keep their original topological positions
		mark(s)
	}
	for i := range ons {
		if ons[i].out.Kind() == hdl.Reg && !live[i] {
			live[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ons[i].eachInput(func(in *hdl.Signal) {
			if in.Kind() != hdl.Reg {
				mark(in)
			}
		})
	}
	for i := range ons {
		if !live[i] {
			ons[i].dead = true
			stats.Eliminated++
		}
	}
}

// useCounts returns how often each signal appears as an operand of a live
// node.
func useCounts(ons []onode) map[*hdl.Signal]int {
	uses := make(map[*hdl.Signal]int)
	for i := range ons {
		if ons[i].dead {
			continue
		}
		ons[i].eachInput(func(in *hdl.Signal) { uses[in]++ })
	}
	return uses
}

// collapseBuffers splices single-use interior buffers into their consuming
// buffer's source list: a validity tree OR(a, OR(b, c)) flattens to
// OR(a, b, c), one node instead of two. Only unkept, non-register buffers
// whose output mask cannot truncate any source (out at least as wide as
// every source) are spliced — the OR of the sources is then bit-identical
// at the consumer. Consumers are processed in topological order, so a chain
// of buffers collapses fully into its final consumer in one pass.
func collapseBuffers(ons []onode, keep map[*hdl.Signal]bool, stats *CompileStats) {
	producer := make(map[*hdl.Signal]int, len(ons))
	for i := range ons {
		if !ons[i].dead {
			producer[ons[i].out] = i
		}
	}
	uses := useCounts(ons)
	splicable := func(s *hdl.Signal) (int, bool) {
		p, ok := producer[s]
		if !ok {
			return 0, false
		}
		b := &ons[p]
		if b.dead || b.kind != nkBuf || keep[s] || s.Kind() == hdl.Reg || uses[s] != 1 {
			return 0, false
		}
		for _, src := range b.srcs {
			if src.Width() > s.Width() {
				return 0, false
			}
		}
		return p, true
	}
	for i := range ons {
		c := &ons[i]
		if c.dead || c.kind != nkBuf {
			continue
		}
		var merged []*hdl.Signal
		changed := false
		for _, src := range c.srcs {
			if p, ok := splicable(src); ok {
				merged = append(merged, ons[p].srcs...)
				ons[p].dead = true
				stats.Collapsed++
				changed = true
				continue
			}
			merged = append(merged, src)
		}
		if changed {
			c.srcs = merged
		}
	}
}

// fuseMuxChains fuses FVal-nested mux chains — the shape hdl.MuxTree emits
// for arbiter grants, g = v0 ? d0 : (v1 ? d1 : (... : fb)) — into one
// nkChain superinstruction. An interior mux is absorbed when it is unkept,
// not a register, and its output's only use is as the false input of the
// mux above it; absorption stops at the first interior whose output mask
// could truncate a value flowing through it (every data/fallback value must
// fit in every interior width above its entry point, so the fused
// root-masked evaluation is bit-identical). Each root walks its whole chain
// downward, so one pass suffices for maximal chains.
func fuseMuxChains(ons []onode, keep map[*hdl.Signal]bool, stats *CompileStats) {
	producer := make(map[*hdl.Signal]int, len(ons))
	for i := range ons {
		if !ons[i].dead {
			producer[ons[i].out] = i
		}
	}
	uses := useCounts(ons)
	// fvalOf[s] = index of the live mux whose false input is s.
	fvalOf := make(map[*hdl.Signal]int)
	for i := range ons {
		if !ons[i].dead && ons[i].kind == nkMux {
			fvalOf[ons[i].fval] = i
		}
	}
	absorbable := func(i int) bool {
		nd := &ons[i]
		if nd.dead || nd.kind != nkMux || keep[nd.out] || nd.out.Kind() == hdl.Reg || uses[nd.out] != 1 {
			return false
		}
		_, ok := fvalOf[nd.out]
		return ok
	}
	for i := range ons {
		root := &ons[i]
		if root.dead || root.kind != nkMux || absorbable(i) {
			continue // absorbed into the root above it instead
		}
		chain := []*hdl.Signal{root.sel, root.tval}
		fallback := root.fval
		minW := root.out.Width()
		for {
			j, ok := producer[fallback]
			if !ok || !absorbable(j) {
				break
			}
			m := &ons[j]
			w := minW
			if m.out.Width() < w {
				w = m.out.Width()
			}
			// Absorbing m drops m's own output mask (and keeps only the
			// root's), so everything that can flow out of m — its data input
			// and its fallback — must fit every interior width above it.
			if m.tval.Width() > w || m.fval.Width() > w {
				break
			}
			minW = w
			chain = append(chain, m.sel, m.tval)
			fallback = m.fval
			m.dead = true
			stats.Fused++
		}
		if len(chain) == 2 {
			continue // nothing absorbed
		}
		root.kind = nkChain
		root.chain = chain
		root.fval = fallback
	}
}
