// This file extracts the contention surface — every arbitration MUX cascade
// and the requestor cones converging on it — independently of
// trace.Analyze, then cross-checks the two layers and ranks the points by
// risk for the audit report.

package flow

import (
	"fmt"
	"sort"

	"sonar/internal/hdl"
	"sonar/internal/trace"
)

// extractSurface reconstructs every MUX cascade from the raw mux list alone:
// it builds its own data-input and driver indexes from n.Muxes() rather than
// reusing the netlist's (or trace.Analyze's) bookkeeping, so agreement
// between the surface and the trace is a genuine cross-check of two
// implementations, not one algorithm reading its own notes twice.
func (au *Audit) extractSurface() {
	n := au.Netlist
	muxes := n.Muxes()
	dataUse := make(map[*hdl.Signal]bool, 2*len(muxes))
	driver := make(map[*hdl.Signal]*hdl.Mux, len(muxes))
	for _, m := range muxes {
		dataUse[m.TVal] = true
		dataUse[m.FVal] = true
		driver[m.Out] = m
	}
	for _, m := range muxes {
		if dataUse[m.Out] {
			continue // interior node of some cascade
		}
		sp := &SurfacePoint{Root: m, Out: m.Out}
		au.walk(m, sp, driver)
		au.Surface = append(au.Surface, sp)
	}
	if len(au.Surface) == 0 {
		au.Findings = append(au.Findings, Finding{
			Code: CodeEmptySurface, Severity: Error, PointID: -1,
			Msg: "design has no arbitration MUX cascades; no contention side channel can exist and no monitor can be placed",
		})
	}
}

// walk descends one cascade, TVal before FVal, so Leaves come out in
// select-priority order — the same visit order trace.Analyze uses, which is
// what makes leaf lists directly comparable in the cross-check.
func (au *Audit) walk(m *hdl.Mux, sp *SurfacePoint, driver map[*hdl.Signal]*hdl.Mux) {
	sp.Muxes = append(sp.Muxes, m)
	sp.Selects = append(sp.Selects, m.Sel)
	for _, in := range []*hdl.Signal{m.TVal, m.FVal} {
		if child, ok := driver[in]; ok {
			au.walk(child, sp, driver)
			continue
		}
		sp.Leaves = append(sp.Leaves, in)
	}
}

// crossCheck verifies the surface and trace.Analyze agree on the design:
// every trace point's root cascade must exist in the surface with the same
// requestor leaves, and every surface cascade must be a trace point. Any
// discrepancy means one static layer is wrong about the netlist, which is
// an Error exactly as a malformed netlist is in hdl/check.
func (au *Audit) crossCheck() {
	byRoot := make(map[*hdl.Mux]*SurfacePoint, len(au.Surface))
	for _, sp := range au.Surface {
		byRoot[sp.Root] = sp
	}
	claimed := make(map[*hdl.Mux]bool, len(au.Surface))
	for _, p := range au.Analysis.Points {
		pa := &PointAudit{Point: p, Monitorable: p.Monitorable()}
		au.Points = append(au.Points, pa)
		sp, ok := byRoot[p.Root]
		if !ok {
			au.Findings = append(au.Findings, Finding{
				Code: CodeSurfaceMissing, Severity: Error, PointID: p.ID,
				Msg: fmt.Sprintf("trace point %d (root %s) has no cascade in the contention surface", p.ID, p.Out.Name()),
			})
			continue
		}
		claimed[p.Root] = true
		pa.Surface = sp
		if !sameLeaves(sp, p.Requests) {
			au.Findings = append(au.Findings, Finding{
				Code: CodeLeafMismatch, Severity: Error, PointID: p.ID,
				Msg: fmt.Sprintf("trace point %d resolved %d requestor leaves, surface resolved %d or in a different order", p.ID, len(p.Requests), len(sp.Leaves)),
			})
		}
	}
	for _, sp := range au.Surface {
		if !claimed[sp.Root] {
			au.Findings = append(au.Findings, Finding{
				Code: CodeSurfaceExtra, Severity: Error, PointID: -1,
				Msg: fmt.Sprintf("surface cascade rooted at %s is not a trace.Analyze contention point", sp.Out.Name()),
			})
		}
	}
}

// sameLeaves reports whether the surface's leaves match the trace point's
// request data signals, in order.
func sameLeaves(sp *SurfacePoint, reqs []trace.Request) bool {
	if len(sp.Leaves) != len(reqs) {
		return false
	}
	for i, l := range sp.Leaves {
		if reqs[i].Data != l {
			return false
		}
	}
	return true
}

// coneWalker computes requestor backward cones with epoch-stamped scratch
// slices: no per-point allocation, no map iteration, fully deterministic.
type coneWalker struct {
	n *hdl.Netlist
	// lastEpoch[id] is the walk epoch that last visited the signal.
	lastEpoch []int64
	epoch     int64
	// cones[id] counts how many of the current point's request cones the
	// signal appears in; touched lists the ids to reset between points.
	cones   []uint8
	touched []int
	queue   []int
	depth   []int32
}

func newConeWalker(n *hdl.Netlist) *coneWalker {
	return &coneWalker{
		n:         n,
		lastEpoch: make([]int64, n.NumSignals()),
		epoch:     0,
		cones:     make([]uint8, n.NumSignals()),
		depth:     make([]int32, n.NumSignals()),
	}
}

// walk BFS-walks the backward combinational cone of one requestor leaf,
// folding each reached signal into the current point's cone counts and
// returning the cone's depth. Registers and constants are included in the
// cone but not traversed: a register output is shared state in its own
// right, but what feeds it belongs to a different cycle.
func (w *coneWalker) walk(leaf *hdl.Signal) int {
	w.epoch++
	w.queue = w.queue[:0]
	maxDepth := 0
	visit := func(s *hdl.Signal, d int32) {
		id := s.ID()
		if w.lastEpoch[id] == w.epoch {
			return
		}
		w.lastEpoch[id] = w.epoch
		if w.cones[id] == 0 {
			w.touched = append(w.touched, id)
		}
		if w.cones[id] < 255 {
			w.cones[id]++
		}
		w.depth[id] = d
		if int(d) > maxDepth {
			maxDepth = int(d)
		}
		w.queue = append(w.queue, id)
	}
	visit(leaf, 0)
	for head := 0; head < len(w.queue); head++ {
		id := w.queue[head]
		s := w.n.SignalByID(id)
		if s.Kind() == hdl.Reg || s.IsConst() {
			continue // in the cone, not through it
		}
		d := w.depth[id] + 1
		if m, ok := w.n.Driver(s); ok {
			visit(m.Sel, d)
			visit(m.TVal, d)
			visit(m.FVal, d)
			continue
		}
		if p, ok := w.n.PrimDriver(s); ok {
			for _, a := range p.Args {
				visit(a, d)
			}
			continue
		}
		for _, src := range s.Sources() {
			visit(src, d)
		}
	}
	return maxDepth
}

// shared counts the signals that appeared in at least two of the cones
// walked since the last reset, then clears the counts.
func (w *coneWalker) shared() int {
	n := 0
	for _, id := range w.touched {
		if w.cones[id] >= 2 {
			n++
		}
		w.cones[id] = 0
	}
	w.touched = w.touched[:0]
	return n
}

// score computes every point's taint reachability, shared fan-in, and cone
// depth, plus the per-point Info findings (dead arbitration, unreachable
// taint).
func (au *Audit) score() {
	w := newConeWalker(au.Netlist)
	for _, pa := range au.Points {
		p := pa.Point
		for _, sel := range p.Selects {
			pa.SelectTaint |= au.TaintOf(sel)
		}
		allConstSel := true
		for _, sel := range p.Selects {
			if !sel.IsConst() {
				allConstSel = false
				break
			}
		}
		for ri := range p.Requests {
			req := &p.Requests[ri]
			pa.RequestTaint |= au.TaintOf(req.Data)
			if d := w.walk(req.Data); d > pa.ConeDepth {
				pa.ConeDepth = d
			}
		}
		pa.SharedFanin = w.shared()
		pa.ConeTaint = pa.SelectTaint | pa.RequestTaint
		pa.TaintPair = pa.ConeTaint.Pair()
		if allConstSel && len(p.Selects) > 0 {
			au.Findings = append(au.Findings, Finding{
				Code: CodeConstArbiter, Severity: Info, PointID: p.ID,
				Msg: fmt.Sprintf("point %d (%s): every select is a literal constant; the arbitration can never switch", p.ID, p.Out.Name()),
			})
		}
		if pa.Monitorable && pa.ConeTaint == 0 {
			au.Findings = append(au.Findings, Finding{
				Code: CodeUntainted, Severity: Info, PointID: p.ID,
				Msg: fmt.Sprintf("point %d (%s): no designated taint source reaches the point", p.ID, p.Out.Name()),
			})
		}
	}
}

// rank orders the points by risk and stamps Rank: the order monitors would
// claim points if a budget forced a choice. The key is
// lexicographic: monitorable before filtered (an unmonitorable point can
// never be watched, whatever its score), then taint-pair reachability,
// shared fan-in, cone depth, and finally the stable point id.
func (au *Audit) rank() {
	sort.SliceStable(au.Points, func(i, j int) bool {
		a, b := au.Points[i], au.Points[j]
		if a.Monitorable != b.Monitorable {
			return a.Monitorable
		}
		if a.TaintPair != b.TaintPair {
			return a.TaintPair
		}
		if a.SharedFanin != b.SharedFanin {
			return a.SharedFanin > b.SharedFanin
		}
		if a.ConeDepth != b.ConeDepth {
			return a.ConeDepth > b.ConeDepth
		}
		return a.Point.ID < b.Point.ID
	})
	for i, pa := range au.Points {
		pa.Rank = i
	}
}
