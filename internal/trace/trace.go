// Package trace implements Sonar's contention-critical state identification
// (paper §5): locating contention points via bottom-up MUX tracing,
// determining request validity (Algorithm 1), and filtering out states
// without side-channel risk (§5.2).
package trace

import (
	"fmt"
	"strings"
	"sync/atomic"

	"sonar/internal/hdl"
)

// Request is one leaf of an n:1 MUX cascade tree — a request arriving at a
// contention point.
type Request struct {
	// Data is the request's data field (the MUX leaf signal).
	Data *hdl.Signal
	// Valids are the signals whose conjunction indicates the request is
	// valid. Empty means no validity could be determined: the request is
	// considered constantly valid (paper Algorithm 1, final fallback).
	// A single entry is a directly matched valid signal; multiple entries
	// are source-derived (their bitwise AND is the validity).
	Valids []*hdl.Signal
	// SelfValid reports that the request data signal is itself a 1-bit
	// valid-style signal (the "single valid signal dominance" case the
	// paper observes in Figure 9).
	SelfValid bool
}

// HasValid reports whether the request carries any validity indication.
func (r *Request) HasValid() bool { return len(r.Valids) > 0 }

// Derived reports whether validity was derived by tracing data sources
// rather than matched directly by prefix.
func (r *Request) Derived() bool { return len(r.Valids) > 1 }

// Point is a contention point: an n:1 selection reconstructed from a
// cascade of 2:1 MUXes via bottom-up tracing (paper §5.1, Figure 3).
type Point struct {
	// ID is the index of the point within its analysis.
	ID int
	// Root is the topmost 2:1 MUX; Out is its output signal.
	Root *hdl.Mux
	// Out is the contention point output.
	Out *hdl.Signal
	// Muxes are all 2:1 MUXes in the cascade tree.
	Muxes []*hdl.Mux
	// Requests are the tree leaves in select-priority order.
	Requests []Request
	// Selects are the select signals of all MUXes in the tree.
	Selects []*hdl.Signal
	// ConstSelects are the tree's MUXes whose select is a literal constant:
	// those selections never switch, so the sub-tree behind the dead branch
	// can never contend. The structural netlist verifier (hdl/check) reports
	// the same muxes as const-select findings.
	ConstSelects []*hdl.Mux
	// Component is the top-level module segment owning the point, used for
	// distribution reports (paper Figure 7).
	Component string
}

// AllConstRequests reports whether every request at the point is a literal
// constant (paper §5.2: such points never expose timing differences).
func (p *Point) AllConstRequests() bool {
	for i := range p.Requests {
		if !p.Requests[i].Data.IsConst() {
			return false
		}
	}
	return true
}

// AnyValid reports whether at least one request carries a validity
// indication. If none does, all requests are considered valid on every
// cycle and reqsIntvl is the constant 0 — dynamic monitoring is meaningless
// (paper §5.2).
func (p *Point) AnyValid() bool {
	for i := range p.Requests {
		if p.Requests[i].HasValid() {
			return true
		}
	}
	return false
}

// Monitorable reports whether the point survives the §5.2 risk filter and
// should receive reqsIntvl instrumentation.
func (p *Point) Monitorable() bool {
	return !p.AllConstRequests() && p.AnyValid()
}

// Fanin returns the number of requests (the n of the n:1 selection).
func (p *Point) Fanin() int { return len(p.Requests) }

// Analysis is the result of contention-point identification on a netlist.
type Analysis struct {
	// Netlist is the analyzed design.
	Netlist *hdl.Netlist
	// Points are the identified contention points (MUX cascade roots).
	Points []*Point
	// NaiveMuxCount is the total number of 2:1 MUXes — what the "2:1
	// MUX-based" strategy the paper compares against would report
	// (Figure 6).
	NaiveMuxCount int
}

// Monitored returns the points that survive the §5.2 filter.
func (a *Analysis) Monitored() []*Point {
	var out []*Point
	for _, p := range a.Points {
		if p.Monitorable() {
			out = append(out, p)
		}
	}
	return out
}

// ByComponent returns contention-point counts per top-level component,
// before and after filtering (paper Figure 7).
func (a *Analysis) ByComponent() map[string][2]int {
	m := make(map[string][2]int)
	for _, p := range a.Points {
		c := m[p.Component]
		c[0]++
		if p.Monitorable() {
			c[1]++
		}
		m[p.Component] = c
	}
	return m
}

// Analyze identifies all contention points in a netlist by bottom-up MUX
// tracing and determines request validity for every leaf. Its cost is
// linear in the number of MUXes (each MUX belongs to a bounded number of
// cascade trees), the property the paper contrasts with SpecDoctor's O(n²)
// instrumentation (§8.3.4).
//
// The points and their lists share one backing array per element type, so
// an analysis stays a handful of objects however many points it holds.
func Analyze(n *hdl.Netlist) *Analysis {
	analyzeCalls.Add(1)
	roots := 0
	for _, m := range n.Muxes() {
		if !n.IsMuxDataInput(m.Out) {
			roots++
		}
	}
	t := tracer{
		net:   n,
		v:     newValidity(n),
		muxes: make([]*hdl.Mux, 0, n.NumMuxes()),
		sels:  make([]*hdl.Signal, 0, n.NumMuxes()),
		reqs:  make([]Request, 0, n.NumMuxes()+roots),
	}
	pts := make([]Point, 0, roots)
	ends := make([]tracedEnd, 0, roots)
	for _, m := range n.Muxes() {
		if n.IsMuxDataInput(m.Out) {
			continue // interior node of some cascade, not a root
		}
		pts = append(pts, Point{ID: len(pts), Root: m, Out: m.Out, Component: component(m.ModulePath())})
		t.collect(m)
		ends = append(ends, tracedEnd{len(t.muxes), len(t.reqs), len(t.consts)})
	}
	muxes, sels, reqs, consts := t.muxes, t.sels, t.reqs, t.consts
	prev := tracedEnd{}
	for i, e := range ends {
		p := &pts[i]
		p.Muxes = carve(&muxes, e.muxes-prev.muxes)
		p.Selects = carve(&sels, e.muxes-prev.muxes)
		p.Requests = carve(&reqs, e.reqs-prev.reqs)
		p.ConstSelects = carve(&consts, e.consts-prev.consts)
		prev = e
	}
	return &Analysis{Netlist: n, Points: pointList(pts), NaiveMuxCount: n.NumMuxes()}
}

// tracer collects every cascade tree of a netlist into shared lists, point
// after point: a point's muxes and selects, requests and const-select muxes
// are each one contiguous run.
type tracer struct {
	net    *hdl.Netlist
	v      *validity
	muxes  []*hdl.Mux
	sels   []*hdl.Signal
	reqs   []Request
	consts []*hdl.Mux
}

// tracedEnd is where a point's runs end in the tracer's lists.
type tracedEnd struct{ muxes, reqs, consts int }

// collect walks a cascade tree from mux m, appending interior muxes,
// selects, and leaf requests. Leaves are visited TVal before FVal so
// requests end up in select-priority order.
func (t *tracer) collect(m *hdl.Mux) {
	t.muxes = append(t.muxes, m)
	t.sels = append(t.sels, m.Sel)
	if m.Sel.IsConst() {
		t.consts = append(t.consts, m)
	}
	for _, in := range [2]*hdl.Signal{m.TVal, m.FVal} {
		if child, ok := t.net.Driver(in); ok {
			t.collect(child)
			continue
		}
		t.reqs = append(t.reqs, t.v.request(in))
	}
}

// carve returns the next k elements of *buf with their capacity capped, nil
// for none, and advances *buf past them.
func carve[T any](buf *[]T, k int) []T {
	if k == 0 {
		return nil
	}
	s := (*buf)[:k:k]
	*buf = (*buf)[k:]
	return s
}

// pointList returns pointers to every point of pts, in order.
func pointList(pts []Point) []*Point {
	list := make([]*Point, len(pts))
	for i := range pts {
		list[i] = &pts[i]
	}
	return list
}

// analyzeCalls counts Analyze invocations process-wide. Sharing one analysis
// across parallel workers (Analysis.Rebind) is cheap only if full analyses
// actually stop happening; the counter lets tests assert that.
var analyzeCalls atomic.Int64

// AnalyzeCalls returns the number of times Analyze has run in this process.
func AnalyzeCalls() int64 { return analyzeCalls.Load() }

// Rebind returns a copy of the analysis with every signal and mux reference
// remapped onto n, an independently elaborated instance of the same design.
// Elaboration is deterministic, so dense ids line up one-to-one between
// instances (see Signal.ID); remapping is a flat table walk, orders of
// magnitude cheaper than re-running Analyze with its validity tracing.
// Rebind panics if n is a different design (name or element counts differ).
func (a *Analysis) Rebind(n *hdl.Netlist) *Analysis {
	src := a.Netlist
	if n.Name() != src.Name() || n.NumSignals() != src.NumSignals() || n.NumMuxes() != src.NumMuxes() {
		panic(fmt.Sprintf("trace: Rebind onto incompatible netlist %q (%d signals, %d muxes) from %q (%d signals, %d muxes)",
			n.Name(), n.NumSignals(), n.NumMuxes(), src.Name(), src.NumSignals(), src.NumMuxes()))
	}
	sig := func(s *hdl.Signal) *hdl.Signal {
		if s == nil {
			return nil
		}
		return n.SignalByID(s.ID())
	}
	var nmux, nreq, nconst, nvalid int
	for _, p := range a.Points {
		nmux, nreq, nconst = nmux+len(p.Muxes), nreq+len(p.Requests), nconst+len(p.ConstSelects)
		for j := range p.Requests {
			nvalid += len(p.Requests[j].Valids)
		}
	}
	var (
		pts   = make([]Point, len(a.Points))
		muxes = make([]*hdl.Mux, 0, nmux+nconst)
		sigs  = make([]*hdl.Signal, 0, nmux+nvalid)
		reqs  = make([]Request, 0, nreq)
	)
	for i, p := range a.Points {
		q := &pts[i]
		*q = Point{ID: p.ID, Root: n.MuxByID(p.Root.ID()), Out: sig(p.Out), Component: p.Component}
		for _, m := range p.Muxes {
			muxes = append(muxes, n.MuxByID(m.ID()))
		}
		q.Muxes = carve(&muxes, len(p.Muxes))
		for _, m := range p.ConstSelects {
			muxes = append(muxes, n.MuxByID(m.ID()))
		}
		q.ConstSelects = carve(&muxes, len(p.ConstSelects))
		for _, s := range p.Selects {
			sigs = append(sigs, sig(s))
		}
		q.Selects = carve(&sigs, len(p.Selects))
		for j := range p.Requests {
			r := &p.Requests[j]
			for _, v := range r.Valids {
				sigs = append(sigs, sig(v))
			}
			reqs = append(reqs, Request{Data: sig(r.Data), Valids: carve(&sigs, len(r.Valids)), SelfValid: r.SelfValid})
		}
		q.Requests = carve(&reqs, len(p.Requests))
	}
	return &Analysis{Netlist: n, Points: pointList(pts), NaiveMuxCount: a.NaiveMuxCount}
}

// component extracts the top-level module segment from a module path.
func component(path string) string {
	if path == "" {
		return "(top)"
	}
	if i := strings.IndexByte(path, '.'); i >= 0 {
		return path[:i]
	}
	return path
}
