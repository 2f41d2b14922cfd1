package uarch

import "sonar/internal/hdl"

// Port is a pulse site resolved at elaboration: a dense handle on a
// request's valid and data signals (see Pulser.Port).
type Port int32

// port holds a pulse site's value slots: the netlist value-plane indices
// of its valid and data signals, so firing a pulse never touches a Signal.
type port struct {
	valid int32
	data  int32 // -1 when the site drives no data
	// target is the sink's handle for the valid, or -1 when the pulse must
	// go through Signal.Set: no sink is bound, or some hook other than the
	// sink's observes the valid.
	target int32
	// shift is 64 minus the data width: the data mask is ^0 >> shift.
	shift uint8
}

// pulse is one scheduled request-port activation: data is driven, then the
// valid signal is raised and lowered, producing a rising edge at exactly the
// scheduled cycle.
type pulse struct {
	port Port
	val  uint64
}

// PulseSink folds whole pulses — a valid raised and lowered within one
// cycle — into its state in one call, in place of the two watch-hook
// dispatches Signal.Set would make. The fuzzing DUT's monitor is the one
// sink.
type PulseSink interface {
	// PulseTarget resolves a valid's value slot to the sink's handle for
	// it and the number of watch hooks the sink registered on that valid
	// (0 when it watches the valid not at all).
	PulseTarget(valid int) (target int32, hooks int)
	// Pulse folds one pulse on the target's valid at the given cycle,
	// exactly as the sink's hooks would fold the rising edge and then the
	// falling edge. The valid rests at 0 and the data is already written.
	Pulse(target int32, cycle int64)
}

// Pulser schedules netlist request pulses for future cycles. The behavioural
// models compute multi-cycle transactions (cache misses, bus transfers)
// eagerly, but the monitor must observe each request at the cycle it
// actually arrives at its contention point; the Pulser bridges the two by
// replaying scheduled pulses when the simulation reaches their cycle.
//
// Pending pulses live in a cycle-indexed ring: slot cycle&mask holds the
// pulses of one cycle in At order. Every pending cycle lies in
// (drained, drained+len(ring)], so no two share a slot; At doubles the ring
// when a pulse lands beyond that window. Slots keep their capacity when
// drained, so steady-state scheduling allocates nothing once the schedule
// shape has been seen.
//
// A pulse whose valid rests at 0 and is observed by the bound sink's hooks
// alone is handed to the sink in one call (direct drive); every other pulse
// sets data, raises and lowers the valid through the netlist, so every hook
// sees exactly the value changes it would see from Signal.Set.
type Pulser struct {
	net   *hdl.Netlist
	ports []port
	sink  PulseSink
	// version is the netlist watch version the port targets were resolved
	// at; a moved version (a hook added or cleared) re-resolves them.
	version uint64

	ring [][]pulse
	mask int64
	// busy counts the non-empty slots.
	busy int
	// drained is the most recent cycle Drain ran for; pulses scheduled at
	// or before it fire immediately (the core is mid-cycle).
	drained int64
}

// initialRing is the starting ring size; it covers an L2 refill and grows
// on the first schedule that reaches further.
const initialRing = 64

// NewPulser creates an empty scheduler for request ports of the netlist.
func NewPulser(net *hdl.Netlist) *Pulser {
	return &Pulser{net: net, ring: make([][]pulse, initialRing), mask: initialRing - 1, drained: -1}
}

// Port resolves a pulse site at elaboration: valid is the 1-bit request
// valid and data, which may be nil, the request data the pulse drives.
func (p *Pulser) Port(valid, data *hdl.Signal) Port {
	if valid.IsConst() || (data != nil && data.IsConst()) {
		panic("uarch: pulse port on a constant signal " + valid.Name())
	}
	pt := port{valid: int32(valid.ID()), data: -1, target: -1}
	if data != nil {
		pt.data, pt.shift = int32(data.ID()), uint8(64-data.Width())
	}
	p.ports = append(p.ports, pt)
	p.resolve(len(p.ports) - 1)
	return Port(len(p.ports) - 1)
}

// Bind makes sink the pulse sink of every port: a port whose valid is
// observed by the sink's hooks alone is driven directly from then on.
func (p *Pulser) Bind(sink PulseSink) {
	p.sink = sink
	p.resolveAll()
}

// resolveAll re-resolves every port's target at the current watch version.
func (p *Pulser) resolveAll() {
	p.version = p.net.WatchVersion()
	for i := range p.ports {
		p.resolve(i)
	}
}

// resolve sets port i's target: the sink's handle for its valid when every
// hook on the valid is the sink's, -1 otherwise.
func (p *Pulser) resolve(i int) {
	pt := &p.ports[i]
	pt.target = -1
	if p.sink == nil {
		return
	}
	t, hooks := p.sink.PulseTarget(int(pt.valid))
	if hooks > 0 && hooks == p.net.SignalByID(int(pt.valid)).NumWatchers() {
		pt.target = t
	}
}

// At schedules a request pulse (valid rising edge, with data driven first)
// on the port for the given cycle. A pulse scheduled for the current or an
// already drained cycle fires immediately.
//
//sonar:alloc-free
func (p *Pulser) At(cycle int64, pt Port, val uint64) {
	if cycle <= p.drained {
		p.fire(pulse{port: pt, val: val})
		return
	}
	if cycle-p.drained > int64(len(p.ring)) {
		p.grow(cycle)
	}
	slot := &p.ring[cycle&p.mask]
	if len(*slot) == 0 {
		p.busy++
	}
	*slot = append(*slot, pulse{port: pt, val: val})
}

// grow doubles the ring until cycle fits in the window, moving each slot of
// the old window to its slot in the new ring.
func (p *Pulser) grow(cycle int64) {
	n := int64(len(p.ring))
	for cycle-p.drained > n {
		n *= 2
	}
	ring := make([][]pulse, n)
	for c := p.drained + 1; c <= p.drained+int64(len(p.ring)); c++ {
		ring[c&(n-1)] = p.ring[c&p.mask]
	}
	p.ring, p.mask = ring, n-1
}

// Drain fires all pulses scheduled for cycles up to and including the given
// cycle. The runner calls it once per cycle before stepping the cores.
// Firing a pulse never schedules another one (watch hooks do not call back
// into the Pulser), so a slot is truncated right after it fires.
func (p *Pulser) Drain(cycle int64) {
	for c := p.drained + 1; c <= cycle && p.busy > 0; c++ {
		slot := &p.ring[c&p.mask]
		if len(*slot) == 0 {
			continue
		}
		for _, pl := range *slot {
			p.fire(pl)
		}
		*slot = (*slot)[:0]
		p.busy--
	}
	p.drained = cycle
}

// fire drives one pulse by value slot: the data is written, then the valid
// pulses, either as one sink call or as a rise and a fall through the
// netlist.
//
//sonar:alloc-free
func (p *Pulser) fire(pl pulse) {
	n := p.net
	pt := &p.ports[pl.port]
	if pt.data >= 0 {
		n.SetSlot(int(pt.data), pl.val&(^uint64(0)>>pt.shift))
	}
	if p.version != n.WatchVersion() {
		p.resolveAll()
	}
	if pt.target >= 0 && n.Values()[pt.valid] == 0 {
		p.sink.Pulse(pt.target, n.Cycle())
		return
	}
	n.SetSlot(int(pt.valid), 1)
	n.SetSlot(int(pt.valid), 0)
}

// Reset drops all scheduled pulses and rewinds the drain clock. The ring
// and its slots keep their capacity.
func (p *Pulser) Reset() {
	if p.busy > 0 {
		for i := range p.ring {
			p.ring[i] = p.ring[i][:0]
		}
		p.busy = 0
	}
	p.drained = -1
}

// PendingCycles returns the number of future cycles with scheduled pulses.
func (p *Pulser) PendingCycles() int { return p.busy }
