package uarch

import "sonar/internal/hdl"

// BulkArray elaborates the repetitive structural selection logic real RTL is
// full of: per-entry write selects for the ROB, fetch buffer, issue queues,
// register file, and predictor tables. Each entry is an n:1 MUX tree over
// write ports with per-port valid/data request signals. These points give
// the netlist realistic contention-point counts and distribution (paper
// Figures 6 and 7); the core drives their valids from dispatch/writeback
// activity, producing the early cluster-triggered contentions the paper
// observes (§8.3.2 observation ① and ②).
type BulkArray struct {
	pulser *Pulser
	ports  []Port // [entry*fanin+port]
	// entries and fanin size ports; both are kept so Touch divides no more
	// than it must.
	entries, fanin int
}

// NewBulkArray elaborates `entries` points each selecting among `fanin`
// write ports of the given data width.
func NewBulkArray(mod *hdl.Module, pulser *Pulser, entries, fanin, width int) *BulkArray {
	b := &BulkArray{pulser: pulser, ports: make([]Port, 0, entries*fanin), entries: entries, fanin: fanin}
	for e := 0; e < entries; e++ {
		ent := mod.Child("e" + digits(e))
		// The final tree input is the entry's hold path — the ubiquitous
		// `entry := mux(wen, wdata, entry)` RTL pattern. It carries no
		// validity indication, so per Algorithm 1 it is constantly valid;
		// any write-port arrival is therefore a zero-interval contention
		// (the paper's early-cluster observation, §8.3.2 ①).
		inputs := make([]*hdl.Signal, fanin+1)
		for p := 0; p < fanin; p++ {
			valid := ent.Wire(portName("io_w", p)+"_valid", 1)
			inputs[p] = ent.Wire(portName("io_w", p)+"_bits_data", width)
			b.ports = append(b.ports, pulser.Port(valid, inputs[p]))
		}
		inputs[fanin] = ent.Wire("state_hold", width)
		sels := make([]*hdl.Signal, fanin)
		for i := range sels {
			sels[i] = ent.Wire("wsel_"+digits(i), 1)
		}
		ent.MuxTree("wdata", sels, inputs)
	}
	return b
}

// Entries returns the number of array entries.
func (b *BulkArray) Entries() int { return b.entries }

// Touch schedules a write-request pulse on entry/port at the given cycle.
func (b *BulkArray) Touch(entry, port int, data uint64, at int64) {
	if b.entries == 0 {
		return
	}
	entry %= b.entries
	port %= b.fanin
	b.pulser.At(at, b.ports[entry*b.fanin+port], data)
}

// NewConstBank elaborates n contention points whose requests are constants —
// configuration selects and tied-off datapaths. They are identified by
// bottom-up tracing but filtered out by the §5.2 risk filter (the paper
// measures ~31% of traced points fall in this class).
func NewConstBank(mod *hdl.Module, n, fanin int) {
	for i := 0; i < n; i++ {
		ent := mod.Child("k" + digits(i))
		inputs := make([]*hdl.Signal, fanin)
		for p := 0; p < fanin; p++ {
			inputs[p] = ent.Const("tie_"+digits(p), 8, uint64(p))
		}
		sels := make([]*hdl.Signal, fanin-1)
		for s := range sels {
			sels[s] = ent.Wire("cfg_sel_"+digits(s), 1)
		}
		ent.MuxTree("cfg_out", sels, inputs)
	}
}

// NewNoValidBank elaborates n contention points whose requests carry no
// validity indication at all: per Algorithm 1 they are constantly valid,
// reqsIntvl is the constant 0, and the §5.2 filter drops them.
func NewNoValidBank(mod *hdl.Module, n, fanin int) {
	for i := 0; i < n; i++ {
		ent := mod.Child("p" + digits(i))
		inputs := make([]*hdl.Signal, fanin)
		for p := 0; p < fanin; p++ {
			inputs[p] = ent.Wire("path_"+digits(p), 16)
		}
		sels := make([]*hdl.Signal, fanin-1)
		for s := range sels {
			sels[s] = ent.Wire("route_sel_"+digits(s), 1)
		}
		ent.MuxTree("route_out", sels, inputs)
	}
}
