package hdl

import "slices"

// Node is one element of a netlist's combinational fabric: a mux, a prim,
// or a buffer signal — a non-constant signal with declared sources and no
// mux or prim driver, whose value is the OR of its sources.
type Node struct {
	Mux  *Mux  // non-nil for a mux node
	Prim *Prim // non-nil for a prim node; both nil for a buffer
	// Out is the driven signal.
	Out *Signal
	// In lists the operands: Sel, TVal, FVal for a mux, Args for a prim,
	// Sources for a buffer. A prim's and a buffer's In alias the netlist's
	// own slices, so callers only read them.
	In []*Signal
}

// Levelize returns the netlist's combinational schedule: the nodes in the
// order they settle within one cycle, plus the nodes left on a cycle that
// no register breaks, in node index order. Nodes are indexed muxes first,
// then prims, then buffer signals, each in creation order. An edge runs
// from the node producing an input to the node reading it, except from a
// register: a register's output is stable during the cycle. Kahn's
// algorithm orders the nodes with a FIFO ready queue seeded in index order,
// releasing successors in (node, input) order. The simulator compiles this
// order, the structural check reports the cyclic nodes, and the taint audit
// propagates along both.
func (n *Netlist) Levelize() (order, cyclic []Node) {
	nodes := make([]Node, 0, len(n.muxes)+len(n.prims))
	muxIn := make([]*Signal, 3*len(n.muxes))
	for i, m := range n.muxes {
		in := muxIn[3*i : 3*i+3 : 3*i+3]
		in[0], in[1], in[2] = m.Sel, m.TVal, m.FVal
		nodes = append(nodes, Node{Mux: m, Out: m.Out, In: in})
	}
	for _, p := range n.prims {
		nodes = append(nodes, Node{Prim: p, Out: p.Out, In: p.Args})
	}
	for _, s := range n.order {
		if s.driver == 0 && s.prim == 0 && len(s.sources) > 0 && !s.IsConst() {
			nodes = append(nodes, Node{Out: s, In: s.sources})
		}
	}

	// producer[id] is the node driving signal id (the last one, for a
	// signal a mux and a prim both drive), or -1.
	producer := make([]int32, len(n.order))
	for i := range producer {
		producer[i] = -1
	}
	for i := range nodes {
		producer[nodes[i].Out.id] = int32(i)
	}
	pred := func(in *Signal) int32 {
		if in.kind == Reg {
			return -1
		}
		return producer[in.id]
	}
	// The successors of node p are succ[off[p]:off[p+1]], in (node, input)
	// order, a node reading one producer twice listed twice.
	indeg := make([]int32, len(nodes))
	off := make([]int32, len(nodes)+1)
	for i := range nodes {
		for _, in := range nodes[i].In {
			if p := pred(in); p >= 0 {
				off[p+1]++
				indeg[i]++
			}
		}
	}
	for i := range nodes {
		off[i+1] += off[i]
	}
	succ := make([]int32, off[len(nodes)])
	fill := slices.Clone(off[:len(nodes)])
	for i := range nodes {
		for _, in := range nodes[i].In {
			if p := pred(in); p >= 0 {
				succ[fill[p]] = int32(i)
				fill[p]++
			}
		}
	}

	queue := make([]int32, 0, len(nodes))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, int32(i))
		}
	}
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		for _, j := range succ[off[p]:off[p+1]] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	order = make([]Node, len(queue))
	for k, i := range queue {
		order[k] = nodes[i]
	}
	for i, d := range indeg {
		if d > 0 {
			cyclic = append(cyclic, nodes[i])
		}
	}
	return order, cyclic
}
