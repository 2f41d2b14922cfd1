package monitor

import (
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/sim"
	"sonar/internal/trace"
)

// rig is a two-request contention point with direct prefix valids.
type rig struct {
	net            *hdl.Netlist
	aValid, bValid *hdl.Signal
	aData, bData   *hdl.Signal
	mon            *Monitor
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	n := hdl.NewNetlist("R")
	m := n.Module("dut")
	r := &rig{net: n}
	r.aValid = m.Wire("io_a_valid", 1)
	r.aData = m.Wire("io_a_bits", 32)
	r.bValid = m.Wire("io_b_valid", 1)
	r.bData = m.Wire("io_b_bits", 32)
	sel := m.Wire("sel", 1)
	m.Mux("out", sel, r.aData, r.bData)
	a := trace.Analyze(n)
	if len(a.Monitored()) != 1 {
		t.Fatalf("monitored points = %d, want 1", len(a.Monitored()))
	}
	r.mon = New(a, cfg)
	return r
}

// pulse raises and lowers a valid within the current cycle.
func pulse(v *hdl.Signal) { v.Set(1); v.Set(0) }

func TestReqsIntvlDistinct(t *testing.T) {
	r := newRig(t, Config{})
	r.mon.SetWindow(true)
	r.aData.Set(100)
	pulse(r.aValid) // cycle 0
	r.net.Step()
	r.net.Step()
	r.net.Step()
	r.bData.Set(200)
	pulse(r.bValid) // cycle 3
	s := r.mon.Snapshot()
	p := s.Points[0]
	if p.MinIntvlDistinct != 3 {
		t.Errorf("MinIntvlDistinct = %d, want 3", p.MinIntvlDistinct)
	}
	if p.VolatileContention {
		t.Error("interval 3 must not count as volatile contention")
	}
	if p.EventCount != 2 {
		t.Errorf("EventCount = %d, want 2", p.EventCount)
	}
}

func TestVolatileContentionAtZeroInterval(t *testing.T) {
	r := newRig(t, Config{})
	r.mon.SetWindow(true)
	pulse(r.aValid)
	pulse(r.bValid) // same cycle
	s := r.mon.Snapshot()
	p := s.Points[0]
	if p.MinIntvlDistinct != 0 {
		t.Errorf("MinIntvlDistinct = %d, want 0", p.MinIntvlDistinct)
	}
	if !p.VolatileContention {
		t.Error("simultaneous arrival must report volatile contention")
	}
	if got := s.Triggered(); len(got) != 1 {
		t.Errorf("Triggered = %v, want one point", got)
	}
}

func TestRisingEdgeOnly(t *testing.T) {
	r := newRig(t, Config{})
	r.mon.SetWindow(true)
	r.aValid.Set(1) // rise: one event
	r.net.Step()
	r.aValid.Set(1) // no change
	r.net.Step()
	r.aValid.Set(0) // fall: no event
	r.net.Step()
	s := r.mon.Snapshot()
	if s.Points[0].EventCount != 1 {
		t.Errorf("EventCount = %d, want 1 (rising edges only)", s.Points[0].EventCount)
	}
}

func TestWindowGatesEvents(t *testing.T) {
	r := newRig(t, Config{})
	pulse(r.aValid) // window closed: dropped
	r.net.Step()
	r.mon.SetWindow(true)
	pulse(r.bValid) // recorded
	r.net.Step()
	r.mon.SetWindow(false)
	pulse(r.aValid) // dropped
	s := r.mon.Snapshot()
	p := s.Points[0]
	if p.EventCount != 1 {
		t.Errorf("EventCount = %d, want 1 (window-gated)", p.EventCount)
	}
	if p.MinIntvlDistinct != NoInterval {
		t.Errorf("MinIntvlDistinct = %d, want NoInterval", p.MinIntvlDistinct)
	}
}

func TestSamePathIntervalAndSimilarity(t *testing.T) {
	r := newRig(t, Config{SimilarityMask: ^uint64(63)}) // cacheline granularity
	r.mon.SetWindow(true)
	r.aData.Set(0x1000)
	pulse(r.aValid) // cycle 0
	for i := 0; i < 5; i++ {
		r.net.Step()
	}
	r.aData.Set(0x1020) // same 64-byte line
	pulse(r.aValid)     // cycle 5
	s := r.mon.Snapshot()
	p := s.Points[0]
	if p.MinIntvlSame != 5 {
		t.Errorf("MinIntvlSame = %d, want 5", p.MinIntvlSame)
	}
	if !p.PersistentCandidate {
		t.Error("same-line revisit must set PersistentCandidate")
	}
	if p.MinIntvlDistinct != NoInterval {
		t.Errorf("MinIntvlDistinct = %d, want NoInterval (single path)", p.MinIntvlDistinct)
	}
}

func TestDissimilarDataIsNotPersistentCandidate(t *testing.T) {
	r := newRig(t, Config{SimilarityMask: ^uint64(63)})
	r.mon.SetWindow(true)
	r.aData.Set(0x1000)
	pulse(r.aValid)
	r.net.Step()
	r.aData.Set(0x2000) // different line
	pulse(r.aValid)
	s := r.mon.Snapshot()
	if s.Points[0].PersistentCandidate {
		t.Error("different-line revisit must not set PersistentCandidate")
	}
}

func TestDigestDiffersWithData(t *testing.T) {
	run := func(data uint64) uint64 {
		r := newRig(t, Config{})
		r.mon.SetWindow(true)
		r.aData.Set(data)
		pulse(r.aValid)
		return r.mon.Snapshot().Points[0].Digest
	}
	if run(1) == run(2) {
		t.Error("digests equal for different request data")
	}
	if run(7) != run(7) {
		t.Error("digests differ for identical behaviour")
	}
}

func TestResetClearsState(t *testing.T) {
	r := newRig(t, Config{})
	r.mon.SetWindow(true)
	pulse(r.aValid)
	pulse(r.bValid)
	r.mon.Reset()
	if r.mon.WindowOpen() {
		t.Error("Reset must close the window")
	}
	s := r.mon.Snapshot()
	p := s.Points[0]
	if p.EventCount != 0 || p.MinIntvlDistinct != NoInterval {
		t.Errorf("state survived Reset: count=%d intvl=%d", p.EventCount, p.MinIntvlDistinct)
	}
	// Instrumentation must still be live after Reset.
	r.mon.SetWindow(true)
	pulse(r.aValid)
	if got := r.mon.Snapshot().Points[0].EventCount; got != 1 {
		t.Errorf("EventCount after Reset+event = %d, want 1", got)
	}
}

func TestMinIntervalsFeedbackMap(t *testing.T) {
	r := newRig(t, Config{})
	r.mon.SetWindow(true)
	pulse(r.aValid)
	r.net.Step()
	r.net.Step()
	pulse(r.bValid)
	mi := r.mon.Snapshot().MinIntervals()
	if len(mi) != 1 {
		t.Fatalf("MinIntervals has %d entries, want 1", len(mi))
	}
	for _, v := range mi {
		if v != 2 {
			t.Errorf("feedback interval = %d, want 2", v)
		}
	}
}

// conjNet is a netlist with one contention point whose first request's
// validity is the AND of two source valids, av and bv. Both valids are buffers of the input trigger,
// so a simulator's Tick can raise them in one evaluation; the analysis is
// the same as with undriven valids.
type conjNet struct {
	net                     *hdl.Netlist
	av, ad, bv, bd, trigger *hdl.Signal
}

func newConjNet() *conjNet {
	n := hdl.NewNetlist("R")
	m := n.Module("dut")
	c := &conjNet{net: n}
	c.av = m.Wire("io_a_valid", 1)
	c.ad = m.Wire("io_a_bits", 8)
	c.bv = m.Wire("io_b_valid", 1)
	c.bd = m.Wire("io_b_bits", 8)
	sum := m.Wire("sum", 8)
	sum.AddSource(c.ad)
	sum.AddSource(c.bd)
	other := m.Wire("io_c_bits", 8)
	m.Wire("io_c_valid", 1)
	sel := m.Wire("sel", 1)
	m.Mux("out", sel, sum, other)
	c.trigger = m.Input("trigger", 1)
	c.av.AddSource(c.trigger)
	c.bv.AddSource(c.trigger)
	return c
}

// twiceAnalysis is one point over c's netlist whose one request names av
// twice: av ∧ bv ∧ av.
func (c *conjNet) twiceAnalysis() *trace.Analysis {
	req := trace.Request{Data: c.ad, Valids: []*hdl.Signal{c.av, c.bv, c.av}}
	return &trace.Analysis{Netlist: c.net, Points: []*trace.Point{{ID: 0, Requests: []trace.Request{req}}}}
}

func TestDerivedValidityConjunction(t *testing.T) {
	// Request whose validity is the AND of two source valids: an event
	// fires only when both are high.
	c := newConjNet()
	n, av, bv := c.net, c.av, c.bv

	a := trace.Analyze(n)
	mon := New(a, Config{})
	twice := New(c.twiceAnalysis(), Config{IgnoreFilter: true})
	count := func(m *Monitor) int { return m.Snapshot().Points[0].EventCount }
	mon.SetWindow(true)
	twice.SetWindow(true)
	av.Set(1) // only one of two: no event
	n.Step()
	if mon.Snapshot().Points[0].EventCount != 0 {
		t.Fatal("event fired with partial conjunction")
	}
	bv.Set(1) // both high: rising edge of the conjunction
	if mon.Snapshot().Points[0].EventCount != 1 {
		t.Error("conjunction rise did not fire an event")
	}
	av.Set(0)
	bv.Set(0)
	n.Step()
	av.Set(1)
	bv.Set(1) // second conjunction rise
	if got := mon.Snapshot().Points[0].EventCount; got != 2 {
		t.Errorf("EventCount = %d, want 2", got)
	}
	// A request naming av twice completes once per conjunction rise.
	if got := count(twice); got != 2 {
		t.Errorf("av ∧ bv ∧ av: EventCount = %d, want 2", got)
	}

	// A pulse on av completes the conjunction iff bv is held high.
	av.Set(0)
	target, hooks := mon.PulseTarget(av.ID())
	if hooks != 1 {
		t.Fatalf("PulseTarget(av) hooks = %d, want 1", hooks)
	}
	mon.Pulse(target, n.Cycle()) // bv held high
	if got := count(mon); got != 3 {
		t.Errorf("pulse with the peer high: EventCount = %d, want 3", got)
	}
	bv.Set(0)
	n.Step()
	mon.Pulse(target, n.Cycle()) // bv held low
	if got := count(mon); got != 3 {
		t.Errorf("pulse with the peer low: EventCount = %d, want 3", got)
	}

	// Both valids rising in one Tick complete the conjunction once.
	s, err := sim.New(n)
	if err != nil {
		t.Fatal(err)
	}
	s.Tick()
	c.trigger.Set(1)
	s.Tick()
	if got := count(mon); got != 4 {
		t.Errorf("both valids rising in one Tick: EventCount = %d, want 4", got)
	}
	if got := count(twice); got != 3 {
		t.Errorf("av ∧ bv ∧ av after one Tick: EventCount = %d, want 3", got)
	}
}

// EventCount counts every in-window arrival, however many there are.
func TestEventCountCountsEveryArrival(t *testing.T) {
	const arrivals = 3 * 64
	r := newRig(t, Config{})
	r.mon.SetWindow(true)
	for i := 0; i < arrivals; i++ {
		pulse(r.aValid)
		r.net.Step()
	}
	if p := r.mon.Snapshot().Points[0]; p.EventCount != arrivals {
		t.Errorf("EventCount = %d, want %d", p.EventCount, arrivals)
	}
}

func TestStatementsAccounting(t *testing.T) {
	r := newRig(t, Config{})
	// 2 watched valids + (2 + 2 requests) fixed statements.
	if got := r.mon.Statements(); got != 6 {
		t.Errorf("Statements = %d, want 6", got)
	}
	if r.mon.NumPoints() != 1 {
		t.Errorf("NumPoints = %d, want 1", r.mon.NumPoints())
	}
}
