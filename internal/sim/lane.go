package sim

import (
	"math/bits"
	"slices"

	"sonar/internal/hdl"
)

// laneRef locates one operand in the bit-sliced plane: the word offset of
// its bit 0 and its width in bits (= words).
type laneRef struct {
	off int32
	w   int32
}

// lnode is a compiled combinational element of the lane evaluator, the
// bit-sliced analog of cnode. Mux and buffer nodes evaluate all hdl.Lanes
// testcases per word operation; prim nodes are classified at compile time as
// scalar spills (kind nkPrim) and evaluate lane by lane through
// hdl.Prim.Compute on the scalar plane.
type lnode struct {
	kind     uint8
	regSlot  int32 // index into regs if out is a register, else -1
	out      *hdl.Signal
	outRef   laneRef
	sel      laneRef   // mux: select operand; copy: source operand
	tval     laneRef   // mux: true-value operand
	fval     laneRef   // mux: false-value operand; chain: fallback operand
	prim     *hdl.Prim // prim: computed per lane via Prim.Compute
	bufs     []laneRef // buf: source operands, OR-reduced per word
	constVal uint64    // const: the folded value, broadcast to all lanes
	chain    []laneRef // chain: interleaved (sel, tval) refs, priority order
}

// lreg is one register with a combinational driver: where its latched words
// live in the plane and where its staged next-words live in the staging
// buffer.
type lreg struct {
	sig     *hdl.Signal
	planeEl laneRef
	nextOff int32
}

// LaneSimulator evaluates a netlist for hdl.Lanes independent testcases at
// once over a bit-sliced hdl.LanePlane. Lane L of every word is testcase L's
// value, so a 2:1 mux settles for all 64 lanes with three word operations
// per output bit: (selMask & tval) | (^selMask & fval), where selMask is the
// lane-wise "select non-zero" mask. Buffers OR-reduce per word; registers
// latch per lane at Tick. Prim nodes cannot be bit-sliced and take a scalar
// spill path (classified once at compile time): each lane's operands are
// gathered onto the netlist's scalar value plane, Prim.Compute runs, and the
// result is scattered back — so during and after lane evaluation the scalar
// plane of spilled signals is scratch, not state. LoadScalar/StoreLane on
// the plane convert between the two worlds.
//
// Evaluation is activity-driven: a node is evaluated only when one of its
// inputs changed since it last ran. A dirty bitset over the evaluation order
// holds the nodes due; a committed output word that changed, a register
// that latched a new word, and a signal the plane's typed mutators touched
// each mark the signal's readers (and, for a touched node output, its
// driver). A skipped node would have recomputed the words it already holds
// and fired no hooks, so values and hook streams equal those of a full
// sweep.
//
// Value changes are observable through WatchLanes hooks, the lane analog of
// Signal.Watch, fired once per store with the changed-lane mask; scalar
// watch hooks never fire during lane evaluation because the scalar plane is
// bypassed.
type LaneSimulator struct {
	net     *hdl.Netlist
	plane   *hdl.LanePlane
	order   []lnode
	next    []uint64 // staged register next-words, by lreg.nextOff
	regs    []lreg
	watch   [][]hdl.LaneWatchFunc // lane watch hooks by signal id
	bits    []uint64              // "any lane watcher?" bitset by signal id
	cycle   int64
	spilled int
	init    []uint64 // construction-time plane words, for Reset
	stats   CompileStats

	// Activity tracking, by signal id and order index: the nodes reading
	// signal id are rdIdx[rdOff[id]:rdOff[id+1]], ascending (a node reading
	// a signal twice is listed twice); driver[id] is the node computing it,
	// or -1. dirty has one bit per node: the nodes the next Eval evaluates.
	rdOff  []int32
	rdIdx  []int32
	driver []int32
	dirty  []uint64

	// Fixed scratch buffers sized for the maximum signal width, so Eval and
	// Tick stay allocation-free.
	outBuf   [64]uint64 // new out words of the node being evaluated
	oldBuf   [64]uint64 // previous words of a watched signal, for its hooks
	laneVals [hdl.Lanes]uint64
}

// NewLanes builds a lane simulator for the netlist with every signal kept
// (only the value-preserving constant-folding optimization runs): the same
// levelized evaluation order as New, compiled against a fresh hdl.LanePlane
// seeded from the netlist's current scalar values (all lanes start
// identical). It returns an error if the combinational logic contains a
// cycle that does not pass through a register.
func NewLanes(n *hdl.Netlist) (*LaneSimulator, error) {
	return NewLanesOpt(n, CompileOptions{})
}

// NewLanesOpt builds a lane simulator through the optimizing compile
// pipeline — the same passes, over the same intermediate nodes, as NewOpt,
// so the scalar and lane evaluators of one netlist always agree on what was
// folded, eliminated, collapsed, and fused.
func NewLanesOpt(n *hdl.Netlist, opts CompileOptions) (*LaneSimulator, error) {
	sorted, drivenRegs, err := levelize(n)
	if err != nil {
		return nil, err
	}
	ons, stats := optimize(sorted, opts)
	plane := hdl.NewLanePlane(n)
	ls := &LaneSimulator{
		net:   n,
		plane: plane,
		watch: make([][]hdl.LaneWatchFunc, n.NumSignals()),
		bits:  make([]uint64, (n.NumSignals()+63)/64),
	}

	ref := func(s *hdl.Signal) laneRef {
		return laneRef{off: int32(plane.Offset(s)), w: int32(s.Width())}
	}

	regSlot := make(map[*hdl.Signal]int32, len(drivenRegs))
	nextWords := int32(0)
	for i, sig := range drivenRegs {
		regSlot[sig] = int32(i)
		ls.regs = append(ls.regs, lreg{sig: sig, planeEl: ref(sig), nextOff: nextWords})
		nextWords += int32(sig.Width())
	}
	ls.next = make([]uint64, nextWords)

	ls.order = make([]lnode, len(ons))
	for i := range ons {
		nd := &ons[i]
		c := lnode{regSlot: -1, out: nd.out, outRef: ref(nd.out)}
		if slot, ok := regSlot[c.out]; ok {
			c.regSlot = slot
		}
		switch nd.kind {
		case nkMux:
			c.kind = nkMux
			c.sel = ref(nd.sel)
			c.tval = ref(nd.tval)
			c.fval = ref(nd.fval)
		case nkPrim:
			c.kind = nkPrim
			c.prim = nd.prim
			ls.spilled++
		case nkBuf:
			c.kind = nkBuf
			c.bufs = make([]laneRef, len(nd.srcs))
			for k, src := range nd.srcs {
				c.bufs[k] = ref(src)
			}
		case nkCopy:
			c.kind = nkCopy
			c.sel = ref(nd.sel)
		case nkConst:
			c.kind = nkConst
			c.constVal = nd.constVal
		case nkChain:
			c.kind = nkChain
			c.fval = ref(nd.fval)
			c.chain = make([]laneRef, len(nd.chain))
			for k, sig := range nd.chain {
				c.chain[k] = ref(sig)
			}
		}
		ls.order[i] = c
	}
	ls.stats = stats
	ls.buildReaders(ons)
	ls.markAll()
	ls.init = append([]uint64(nil), plane.Words()...)
	return ls, nil
}

// buildReaders fills the activity tables from the compiled nodes' inputs:
// one pass counts each signal's readers, a second fills them in.
func (ls *LaneSimulator) buildReaders(ons []onode) {
	nsig := ls.net.NumSignals()
	ls.rdOff = make([]int32, nsig+1)
	for i := range ons {
		ons[i].eachInput(func(in *hdl.Signal) { ls.rdOff[in.ID()+1]++ })
	}
	for id := 0; id < nsig; id++ {
		ls.rdOff[id+1] += ls.rdOff[id]
	}
	ls.rdIdx = make([]int32, ls.rdOff[nsig])
	fill := slices.Clone(ls.rdOff[:nsig])
	for i := range ons {
		ons[i].eachInput(func(in *hdl.Signal) {
			ls.rdIdx[fill[in.ID()]] = int32(i)
			fill[in.ID()]++
		})
	}
	ls.driver = make([]int32, nsig)
	for id := range ls.driver {
		ls.driver[id] = -1
	}
	for i := range ls.order {
		ls.driver[ls.order[i].out.ID()] = int32(i)
	}
	ls.dirty = make([]uint64, (len(ls.order)+63)/64)
}

// Netlist returns the simulated netlist.
func (ls *LaneSimulator) Netlist() *hdl.Netlist { return ls.net }

// Plane returns the bit-sliced value plane the simulator evaluates over.
func (ls *LaneSimulator) Plane() *hdl.LanePlane { return ls.plane }

// Cycle returns the current lane simulation cycle. The lane clock is
// independent of the netlist's scalar clock (Netlist.Cycle), which stays
// untouched during lane evaluation.
func (ls *LaneSimulator) Cycle() int64 { return ls.cycle }

// SpilledNodes returns how many compiled nodes take the scalar spill path
// (prim nodes). Zero means the whole design bit-slices.
func (ls *LaneSimulator) SpilledNodes() int { return ls.spilled }

// Stats returns what the compile pipeline did to the netlist.
func (ls *LaneSimulator) Stats() CompileStats { return ls.stats }

// Reset restores every lane of every signal to its construction-time value
// and rewinds the lane clock to cycle 0, so one lane simulator executes
// back-to-back runs from identical state. The restore writes the plane words
// directly and fires no lane watch hooks; observers that need a valid's
// state read it from the plane (monitor.LaneBank does), so none falls out
// of step.
func (ls *LaneSimulator) Reset() {
	copy(ls.plane.Words(), ls.init)
	for i := range ls.next {
		ls.next[i] = 0
	}
	ls.markAll()
	ls.cycle = 0
}

// markAll marks every node dirty, so the next Eval is a full sweep.
//
//sonar:alloc-free
func (ls *LaneSimulator) markAll() {
	for i := range ls.dirty {
		ls.dirty[i] = ^uint64(0)
	}
	if r := len(ls.order) & 63; r != 0 {
		ls.dirty[len(ls.dirty)-1] = 1<<uint(r) - 1
	}
}

// markReaders marks dirty every node that reads signal id.
//
//sonar:alloc-free
func (ls *LaneSimulator) markReaders(id int) {
	for _, k := range ls.rdIdx[ls.rdOff[id]:ls.rdOff[id+1]] {
		ls.dirty[k>>6] |= 1 << (uint(k) & 63)
	}
}

// drainTouched clears the plane's touched set, marking dirty the readers of
// every touched signal and the driver of every touched node output (which
// must recompute over the stored words, as a full sweep would).
//
//sonar:alloc-free
func (ls *LaneSimulator) drainTouched() {
	t := ls.plane.Touched()
	for i, m := range t {
		if m == 0 {
			continue
		}
		t[i] = 0
		for ; m != 0; m &= m - 1 {
			id := i<<6 + bits.TrailingZeros64(m)
			ls.markReaders(id)
			if d := ls.driver[id]; d >= 0 {
				ls.dirty[d>>6] |= 1 << (uint(d) & 63)
			}
		}
	}
}

// WatchLanes registers fn to be called once per store that changes the
// signal in any lane during Eval, Tick or SetLane, after the plane already
// holds the new words.
func (ls *LaneSimulator) WatchLanes(s *hdl.Signal, fn hdl.LaneWatchFunc) {
	id := s.ID()
	ls.watch[id] = append(ls.watch[id], fn)
	ls.bits[uint(id)>>6] |= 1 << (uint(id) & 63)
}

// watched reports whether the signal has at least one lane watch hook.
func (ls *LaneSimulator) watched(s *hdl.Signal) bool {
	id := uint(s.ID())
	return ls.bits[id>>6]&(1<<(id&63)) != 0
}

// gather assembles lane's value from w bit words.
func gather(words []uint64, w int32, lane int) uint64 {
	var v uint64
	for b := int32(0); b < w; b++ {
		v |= (words[b] >> uint(lane) & 1) << uint(b)
	}
	return v
}

// fire calls the signal's lane watch hooks for one store: the lanes set in
// changed went from oldW to cur, which the plane already holds.
//
//sonar:alloc-free
func (ls *LaneSimulator) fire(s *hdl.Signal, changed uint64, oldW, cur []uint64) {
	for _, fn := range ls.watch[s.ID()] {
		fn(s, changed, oldW, cur, ls.cycle)
	}
}

// store writes words into cur. If any word changes it marks the signal's
// readers dirty and fires its lane watch hooks.
//
//sonar:alloc-free
func (ls *LaneSimulator) store(s *hdl.Signal, cur, words []uint64) {
	var changed uint64
	for b, x := range words {
		changed |= cur[b] ^ x
	}
	if changed == 0 {
		return
	}
	ls.markReaders(s.ID())
	if !ls.watched(s) {
		copy(cur, words)
		return
	}
	old := ls.oldBuf[:len(words)]
	copy(old, cur)
	copy(cur, words)
	ls.fire(s, changed, old, cur)
}

// Eval settles all combinational logic for the current cycle across all
// lanes. It drains the plane's touched set, then evaluates the dirty nodes
// in one ascending pass: a node's readers come later in the order, so a
// change it commits is picked up within the same pass. Values destined for
// registers are staged and only latched by Tick, so register reads always
// see latched values, exactly as in the scalar evaluator.
//
//sonar:alloc-free
func (ls *LaneSimulator) Eval() {
	ls.drainTouched()
	W := ls.plane.Words()
	vals := ls.net.Values()
	for wi := range ls.dirty {
		for ls.dirty[wi] != 0 {
			m := ls.dirty[wi]
			ls.dirty[wi] = m & (m - 1)
			nd := &ls.order[wi<<6+bits.TrailingZeros64(m)]
			ls.compute(nd, W, vals)
			w := nd.outRef.w
			if nd.regSlot >= 0 {
				r := &ls.regs[nd.regSlot]
				copy(ls.next[r.nextOff:r.nextOff+w], ls.outBuf[:w])
			} else {
				ls.store(nd.out, W[nd.outRef.off:nd.outRef.off+w], ls.outBuf[:w])
			}
		}
	}
}

// compute evaluates one node over the plane words W into ls.outBuf.
//
//sonar:alloc-free
func (ls *LaneSimulator) compute(nd *lnode, W []uint64, vals []uint64) {
	w := nd.outRef.w
	switch nd.kind {
	case nkMux:
		// selMask bit L = "lane L's select is non-zero".
		var selMask uint64
		for b := int32(0); b < nd.sel.w; b++ {
			selMask |= W[nd.sel.off+b]
		}
		for b := int32(0); b < w; b++ {
			var t, f uint64
			if b < nd.tval.w {
				t = W[nd.tval.off+b]
			}
			if b < nd.fval.w {
				f = W[nd.fval.off+b]
			}
			ls.outBuf[b] = selMask&t | ^selMask&f
		}
	case nkPrim:
		// Scalar spill: run each lane through Prim.Compute on the scalar
		// plane. The spilled args' scalar values are scratch afterwards.
		// These writes bypass Signal.Set and its watchers, which is safe
		// only because a lane netlist carries no scalar watchers: its
		// monitor is a LaneBank on the lane hooks, and a scalar
		// monitor.Monitor must live on a separate elaboration (see
		// fuzz.LaneDUT).
		for lane := 0; lane < hdl.Lanes; lane++ {
			for _, a := range nd.prim.Args {
				if a.IsConst() {
					continue
				}
				vals[a.ID()] = gather(W[ls.plane.Offset(a):], int32(a.Width()), lane)
			}
			ls.laneVals[lane] = nd.prim.Compute()
		}
		for b := int32(0); b < w; b++ {
			var word uint64
			for lane := 0; lane < hdl.Lanes; lane++ {
				word |= (ls.laneVals[lane] >> uint(b) & 1) << uint(lane)
			}
			ls.outBuf[b] = word
		}
	case nkBuf:
		for b := int32(0); b < w; b++ {
			var acc uint64
			for _, src := range nd.bufs {
				if b < src.w {
					acc |= W[src.off+b]
				}
			}
			ls.outBuf[b] = acc
		}
	case nkCopy:
		for b := int32(0); b < w; b++ {
			var x uint64
			if b < nd.sel.w {
				x = W[nd.sel.off+b]
			}
			ls.outBuf[b] = x
		}
	case nkConst:
		// Bit b of the folded value broadcast to all lanes of word b.
		for b := int32(0); b < w; b++ {
			if nd.constVal>>uint(b)&1 != 0 {
				ls.outBuf[b] = ^uint64(0)
			} else {
				ls.outBuf[b] = 0
			}
		}
	default: // nkChain: fallback first, then entries from weakest to strongest
		for b := int32(0); b < w; b++ {
			var x uint64
			if b < nd.fval.w {
				x = W[nd.fval.off+b]
			}
			ls.outBuf[b] = x
		}
		for k := len(nd.chain) - 2; k >= 0; k -= 2 {
			sel := nd.chain[k]
			var selMask uint64
			for b := int32(0); b < sel.w; b++ {
				selMask |= W[sel.off+b]
			}
			t := nd.chain[k+1]
			for b := int32(0); b < w; b++ {
				var tw uint64
				if b < t.w {
					tw = W[t.off+b]
				}
				ls.outBuf[b] = selMask&tw | ^selMask&ls.outBuf[b]
			}
		}
	}
}

// Tick settles combinational logic, latches registers per lane (firing lane
// watch hooks at the pre-increment cycle, matching the scalar Tick), and
// advances the lane clock one cycle.
//
//sonar:alloc-free
func (ls *LaneSimulator) Tick() {
	ls.Eval()
	W := ls.plane.Words()
	for i := range ls.regs {
		r := &ls.regs[i]
		w := r.planeEl.w
		ls.store(r.sig, W[r.planeEl.off:r.planeEl.off+w], ls.next[r.nextOff:r.nextOff+w])
	}
	ls.cycle++
}

// Run executes n clock cycles.
func (ls *LaneSimulator) Run(n int) {
	for i := 0; i < n; i++ {
		ls.Tick()
	}
}

// SetLane sets one lane of a signal, firing the signal's lane watch hooks
// if that lane's value changed — the lane analog of hdl.Signal.Set.
// Stimulus drivers poke through this method: the plane's typed mutators
// fire no hooks, so a watcher would miss a rise written through them.
// (monitor.LaneBank reads a conjunction's other valids from the plane, so
// those it sees however they were written.)
//
//sonar:alloc-free
func (ls *LaneSimulator) SetLane(s *hdl.Signal, lane int, v uint64) {
	if ls.plane.Get(s, lane) == v&s.Mask() {
		return
	}
	if !ls.watched(s) {
		ls.plane.Set(s, lane, v)
		return
	}
	off := ls.plane.Offset(s)
	cur := ls.plane.Words()[off : off+s.Width()]
	old := ls.oldBuf[:len(cur)]
	copy(old, cur)
	ls.plane.Set(s, lane, v)
	ls.fire(s, 1<<uint(lane), old, cur)
}
