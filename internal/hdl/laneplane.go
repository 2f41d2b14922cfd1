package hdl

import "fmt"

// Lanes is the lane count of a bit-sliced value plane: one lane per bit of a
// uint64 word, so 64 independent testcases evaluate per word operation.
const Lanes = 64

// LaneWatchFunc observes one store that changes a signal in some lanes: the
// lane analog of WatchFunc, a word at a time. changed has bit L set for each
// lane L whose value changed; old and new are the signal's bit words before
// and after the store (laid out as in LanePlane), valid only during the call;
// cycle is the lane simulation cycle of the change.
type LaneWatchFunc func(s *Signal, changed uint64, old, new []uint64, cycle int64)

// LanePlane is a bit-sliced, Lanes-wide value plane over a netlist: where the
// scalar plane (Netlist.Values) stores one value per signal, a LanePlane
// stores Lanes independent values per signal, transposed so that word b of a
// signal's storage holds bit b of all lanes (bit L of that word is lane L's
// bit b). In this layout a 2:1 mux evaluates for all lanes at once as
// (sel & tval) | (^sel & fval) per bit word, which is what makes
// sim.LaneSimulator profitable.
//
// A signal of width w occupies w consecutive words starting at Offset(s).
// Stored values are always masked to the signal width, mirroring Signal.Set.
// The plane fires no watch hooks (demuxing a lane back through the scalar
// plane's hooks is StoreLane's job), but it records which signals its typed
// mutators (Set, SetWord, Broadcast, LoadScalar) wrote in a touched set, so
// an activity-driven evaluator (sim.LaneSimulator) re-evaluates exactly the
// logic that reads them.
type LanePlane struct {
	net *Netlist
	// off[id] is the word offset of signal id's bit 0; off[len] is the total
	// word count, so signal id spans off[id]..off[id+1].
	off   []int32
	words []uint64
	// touched is the touched set: bit id&63 of word id>>6 is set once a
	// typed mutator writes signal id, until the evaluator drains it.
	touched []uint64
}

// NewLanePlane allocates a lane plane over the netlist and broadcasts every
// signal's current scalar value into all lanes (so constants — and any state
// already established through Signal.Set — are correct in every lane).
func NewLanePlane(n *Netlist) *LanePlane {
	sigs := n.Signals()
	off := make([]int32, len(sigs)+1)
	total := int32(0)
	for i, s := range sigs {
		off[i] = total
		total += int32(s.Width())
	}
	off[len(sigs)] = total
	p := &LanePlane{net: n, off: off, words: make([]uint64, total), touched: make([]uint64, (len(sigs)+63)/64)}
	p.LoadScalar()
	return p
}

// Netlist returns the netlist the plane was built over.
func (p *LanePlane) Netlist() *Netlist { return p.net }

// Offset returns the word index of the signal's bit 0 within Words. Bit b of
// the signal lives at Words()[Offset(s)+b].
func (p *LanePlane) Offset(s *Signal) int { return int(p.off[s.id]) }

// Words returns the raw bit-sliced storage. It is live and reserved to the
// evaluator's hot loop and its Reset: a write through it records nothing in
// the touched set, so logic reading the written signal would not
// re-evaluate. Every other caller writes through the typed mutators.
func (p *LanePlane) Words() []uint64 { return p.words }

// Touched returns the live touched set: bit id&63 of word id>>6 is set when
// signal id was written through Set, SetWord, Broadcast or LoadScalar since
// the bit was last cleared. The evaluator that owns the plane drains it,
// clearing the words it visits.
func (p *LanePlane) Touched() []uint64 { return p.touched }

// touch records signal s in the touched set.
//
//sonar:alloc-free
func (p *LanePlane) touch(s *Signal) {
	p.touched[uint(s.id)>>6] |= 1 << (uint(s.id) & 63)
}

// Word returns the lane word holding bit b of the signal: bit L of the
// result is lane L's value of signal bit b.
func (p *LanePlane) Word(s *Signal, b int) uint64 {
	return p.words[int(p.off[s.id])+b]
}

// SetWord stores the lane word holding bit b of the signal.
func (p *LanePlane) SetWord(s *Signal, b int, w uint64) {
	p.words[int(p.off[s.id])+b] = w
	p.touch(s)
}

// Get gathers the value of the signal in the given lane.
func (p *LanePlane) Get(s *Signal, lane int) uint64 {
	base := int(p.off[s.id])
	var v uint64
	for b := 0; b < int(s.width); b++ {
		v |= (p.words[base+b] >> uint(lane) & 1) << uint(b)
	}
	return v
}

// Set scatters a value into the given lane of the signal, masking it to the
// signal width. Like Signal.Set it panics on constants.
func (p *LanePlane) Set(s *Signal, lane int, v uint64) {
	if s.kind == Const {
		panic(fmt.Sprintf("hdl: lane Set on constant signal %s", s.name))
	}
	v &= s.mask
	p.touch(s)
	base := int(p.off[s.id])
	bit := uint64(1) << uint(lane)
	for b := 0; b < int(s.width); b++ {
		if v>>uint(b)&1 != 0 {
			p.words[base+b] |= bit
		} else {
			p.words[base+b] &^= bit
		}
	}
}

// Broadcast stores the same value (masked to the signal width) into every
// lane of the signal.
func (p *LanePlane) Broadcast(s *Signal, v uint64) {
	v &= s.mask
	p.touch(s)
	base := int(p.off[s.id])
	for b := 0; b < int(s.width); b++ {
		if v>>uint(b)&1 != 0 {
			p.words[base+b] = ^uint64(0)
		} else {
			p.words[base+b] = 0
		}
	}
}

// LoadScalar broadcasts every signal's current scalar value into all lanes,
// re-synchronizing the plane with the netlist.
func (p *LanePlane) LoadScalar() {
	for _, s := range p.net.order {
		p.Broadcast(s, p.net.vals[s.id])
	}
}

// StoreLane demuxes one lane back into the scalar plane through Signal.Set,
// so scalar watch hooks observe the lane's values at the netlist's current
// cycle. Constants are skipped (their lanes never diverge from the scalar
// plane). The order is signal creation order, matching elaboration.
func (p *LanePlane) StoreLane(lane int) {
	for _, s := range p.net.order {
		if s.kind == Const {
			continue
		}
		s.Set(p.Get(s, lane))
	}
}

// NonzeroMask returns, as a lane bitmask, which lanes hold a non-zero value
// of the signal: the lane-wise OR of all bit words. Bit L set means lane L's
// value is non-zero — the lane analog of Signal.Bool.
func (p *LanePlane) NonzeroMask(s *Signal) uint64 {
	base := int(p.off[s.id])
	var m uint64
	for b := 0; b < int(s.width); b++ {
		m |= p.words[base+b]
	}
	return m
}
