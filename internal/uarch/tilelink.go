package uarch

import "sonar/internal/hdl"

// DChannel models the TileLink D-channel between the L1 caches and the L2:
// the response path data transfers are routed through. A cacheline read
// occupies the channel for ReadBeats cycles; a writeback occupies it for one
// cycle (paper §8.4.A). Overlapping requests serialize, which is the root of
// side channels S1-S4.
//
// The channel's arbiter is declared in the netlist as an n:1 MUX over the
// requesting sources, so Sonar's analyses identify it as a contention point
// and observe every request arrival at its true cycle (via the Pulser).
type DChannel struct {
	readBeats int
	freeAt    int64
	pulser    *Pulser
	// partitioned gives each requester its own virtual lane (the §8.6
	// resource-partitioning mitigation); laneFree tracks per-lane
	// occupancy instead of the shared freeAt.
	partitioned bool
	laneFree    []int64

	sourceNames []string
	req         []Port

	// Grants counts channel grants per source, for reports.
	Grants []int
	// Trace records every transfer (source, arrival, grant, completion)
	// for debugging and reports.
	Trace []Transfer
}

// Transfer is one recorded D-channel transaction.
type Transfer struct {
	Source      string // requesting port's source name
	At          int64  // request arrival
	Grant       int64  // transfer start
	Done        int64  // transfer completion
	IsWriteback bool   // writeback (put) rather than refill read
}

// NewDChannel elaborates the D-channel arbiter under mod with one request
// port per source name.
func NewDChannel(mod *hdl.Module, pulser *Pulser, readBeats int, sources []string) *DChannel {
	d := &DChannel{
		readBeats:   readBeats,
		pulser:      pulser,
		sourceNames: sources,
		Grants:      make([]int, len(sources)),
		laneFree:    make([]int64, len(sources)),
	}
	inputs := make([]*hdl.Signal, len(sources))
	for i, src := range sources {
		v := mod.Wire("io_req_"+src+"_valid", 1)
		inputs[i] = mod.Wire("io_req_"+src+"_bits_addr", 64)
		d.req = append(d.req, pulser.Port(v, inputs[i]))
	}
	if len(sources) >= 2 {
		sels := make([]*hdl.Signal, len(sources)-1)
		for i := range sels {
			sels[i] = mod.Wire("grant_"+sources[i], 1)
		}
		mod.MuxTree("d_channel_data", sels, inputs)
	}
	return d
}

// SetPartitioned switches the channel to per-requester virtual lanes.
func (d *DChannel) SetPartitioned(on bool) { d.partitioned = on }

// Reset clears channel occupancy between program runs.
func (d *DChannel) Reset() {
	d.freeAt = 0
	for i := range d.Grants {
		d.Grants[i] = 0
	}
	for i := range d.laneFree {
		d.laneFree[i] = 0
	}
	d.Trace = d.Trace[:0]
}

// RequestRead requests a cacheline read for source src arriving at cycle
// `at`. It returns the cycle the transfer completes (all beats delivered).
// The channel is occupied from the grant until then.
func (d *DChannel) RequestRead(src int, lineAddr uint64, at int64) int64 {
	grant := d.request(src, lineAddr, at)
	done := grant + int64(d.readBeats)
	d.release(src, done)
	d.Trace = append(d.Trace, Transfer{Source: d.sourceNames[src], At: at, Grant: grant, Done: done})
	return done
}

// RequestWrite requests a one-cycle writeback transfer for source src
// arriving at cycle `at`. It returns the cycle the transfer completes.
func (d *DChannel) RequestWrite(src int, lineAddr uint64, at int64) int64 {
	grant := d.request(src, lineAddr, at)
	done := grant + 1
	d.release(src, done)
	d.Trace = append(d.Trace, Transfer{Source: d.sourceNames[src], At: at, Grant: grant, Done: done, IsWriteback: true})
	return done
}

// request schedules the source's request pulse in the netlist for its
// arrival cycle and returns the grant cycle (first-come-first-served; a
// busy channel delays the grant).
func (d *DChannel) request(src int, lineAddr uint64, at int64) int64 {
	d.pulser.At(at, d.req[src], lineAddr)
	d.Grants[src]++
	free := d.freeAt
	if d.partitioned {
		free = d.laneFree[src]
	}
	if at > free {
		return at
	}
	return free
}

// release records the end of a transfer on the shared channel or the
// source's lane.
func (d *DChannel) release(src int, done int64) {
	if d.partitioned {
		d.laneFree[src] = done
		return
	}
	d.freeAt = done
}

// BusyAt reports whether the channel is occupied at the given cycle.
func (d *DChannel) BusyAt(cycle int64) bool { return cycle < d.freeAt }

// FreeAt returns the cycle at which the channel becomes free.
func (d *DChannel) FreeAt() int64 { return d.freeAt }
