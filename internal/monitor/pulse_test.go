package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/trace"
	"sonar/internal/uarch"
)

// pulseReq describes one request of a hand-built point: the indices of its
// conjunction's valids (duplicates allowed; empty means constantly valid)
// and its data field, a data wire (>= 0) or valid -data-1 (self-valid when
// that valid is its whole conjunction).
type pulseReq struct {
	valids []int
	data   int
}

const (
	pulseValids = 4
	pulseDatas  = 3
)

// randomPulsePoints draws 1–3 points of 1–3 requests each, with
// conjunctions of 1–3 valids that may name one valid twice and data fields
// that may be a valid.
func randomPulsePoints(rng *rand.Rand) [][]pulseReq {
	points := make([][]pulseReq, 1+rng.Intn(3))
	for i := range points {
		reqs := make([]pulseReq, 1+rng.Intn(3))
		for j := range reqs {
			r := &reqs[j]
			switch rng.Intn(6) {
			case 0: // constantly valid
				r.data = rng.Intn(pulseDatas)
				continue
			case 1: // self-valid
				v := rng.Intn(pulseValids)
				r.valids, r.data = []int{v}, -v-1
				continue
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				r.valids = append(r.valids, rng.Intn(pulseValids))
			}
			if rng.Intn(4) == 0 {
				r.valids = append(r.valids, r.valids[0]) // a valid named twice
			}
			if rng.Intn(3) == 0 {
				r.data = -rng.Intn(pulseValids) - 1
			} else {
				r.data = rng.Intn(pulseDatas)
			}
		}
		points[i] = reqs
	}
	return points
}

// pulseRig is a monitor over hand-built points on a netlist of valid and
// data wires.
type pulseRig struct {
	net    *hdl.Netlist
	valids []*hdl.Signal
	datas  []*hdl.Signal
	mon    *Monitor
}

func newPulseRig(spec [][]pulseReq) *pulseRig {
	n := hdl.NewNetlist("P")
	r := &pulseRig{net: n}
	for i := 0; i < pulseValids; i++ {
		r.valids = append(r.valids, n.Wire(fmt.Sprintf("v%d_valid", i), 1))
	}
	for i := 0; i < pulseDatas; i++ {
		r.datas = append(r.datas, n.Wire(fmt.Sprintf("d%d_bits", i), 16))
	}
	var points []*trace.Point
	for pi, reqs := range spec {
		p := &trace.Point{ID: pi}
		for _, rq := range reqs {
			req := trace.Request{}
			if rq.data >= 0 {
				req.Data = r.datas[rq.data]
			} else {
				req.Data = r.valids[-rq.data-1]
			}
			for _, v := range rq.valids {
				req.Valids = append(req.Valids, r.valids[v])
			}
			req.SelfValid = len(req.Valids) == 1 && req.Valids[0] == req.Data
			p.Requests = append(p.Requests, req)
		}
		points = append(points, p)
	}
	r.mon = New(&trace.Analysis{Netlist: n, Points: points}, Config{IgnoreFilter: true})
	return r
}

// sinkCounter forwards pulses to the monitor and counts them.
type sinkCounter struct {
	*Monitor
	pulses int
}

func (s *sinkCounter) Pulse(target int32, cycle int64) {
	s.pulses++
	s.Monitor.Pulse(target, cycle)
}

// sameMonitorState reports whether two rigs' monitors hold byte-equal
// state: every point state (its trace.Point pointer aside, which differs
// between rigs), the dirty set and the window.
func sameMonitorState(a, b *Monitor) bool {
	if a.window != b.window || !reflect.DeepEqual(a.set.dirty, b.set.dirty) || a.set.ndirty != b.set.ndirty {
		return false
	}
	for i := range a.set.states {
		sa, sb := a.set.states[i], b.set.states[i]
		sa.point, sb.point = nil, nil
		if !reflect.DeepEqual(sa, sb) {
			return false
		}
	}
	return true
}

// Property: a pulse the Pulser hands to the monitor in one Pulse call
// leaves the monitor byte-equal to the rising and falling watch-hook
// dispatches of Set(1) and Set(0), over random conjunctions (sizes 1–3, a
// valid named twice), self-valid and valid-carried data, the window open
// and closed, and valids held high — which must bypass Pulse.
func TestPulseMatchesRiseFallFold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	direct, highPulses := 0, 0
	for trial := 0; trial < 300; trial++ {
		spec := randomPulsePoints(rng)
		a, b := newPulseRig(spec), newPulseRig(spec)
		p := uarch.NewPulser(a.net)
		ports := make([][]uarch.Port, pulseValids)
		for v := range ports {
			ports[v] = append(ports[v], p.Port(a.valids[v], nil))
			for _, d := range a.datas {
				ports[v] = append(ports[v], p.Port(a.valids[v], d))
			}
		}
		sink := &sinkCounter{Monitor: a.mon}
		p.Bind(sink)
		p.Drain(0)

		held := make([]bool, pulseValids)
		for step := 0; step < 40; step++ {
			v := rng.Intn(pulseValids)
			switch op := rng.Intn(10); {
			case op == 0: // hold a valid high, or release it
				held[v] = !held[v]
				val := uint64(0)
				if held[v] {
					val = 1
				}
				a.valids[v].Set(val)
				b.valids[v].Set(val)
			case op == 1:
				a.mon.SetWindow(!a.mon.WindowOpen())
				b.mon.SetWindow(!b.mon.WindowOpen())
			case op == 2:
				a.net.Step()
				b.net.Step()
				p.Drain(a.net.Cycle())
			default: // pulse, with or without data
				port := rng.Intn(1 + pulseDatas)
				val := uint64(rng.Intn(1 << 17))
				before := sink.pulses
				wantDirect := a.valids[v].NumWatchers() > 0 && a.valids[v].Value() == 0
				p.At(a.net.Cycle(), ports[v][port], val)
				if port > 0 {
					b.datas[port-1].Set(val)
				}
				b.valids[v].Set(1)
				b.valids[v].Set(0)
				held[v] = false
				want := 0
				if wantDirect {
					want = 1
					direct++
				} else if a.valids[v].NumWatchers() > 0 {
					highPulses++
				}
				if got := sink.pulses - before; got != want {
					t.Fatalf("trial %d step %d: %d Pulse calls for a pulse on valid %d, want %d", trial, step, got, v, want)
				}
			}
			if !sameMonitorState(a.mon, b.mon) {
				t.Fatalf("trial %d step %d: monitor state diverged (spec %v)", trial, step, spec)
			}
			if a.net.Values()[a.valids[v].ID()] != b.net.Values()[b.valids[v].ID()] {
				t.Fatalf("trial %d step %d: valid %d differs", trial, step, v)
			}
		}
	}
	if direct == 0 || highPulses == 0 {
		t.Fatalf("%d direct pulses and %d on a valid held high: a path went untested", direct, highPulses)
	}
}
