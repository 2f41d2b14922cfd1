// Lane-parallel netlist campaign substrate: LaneDUT executes whole lane
// groups of testcase pairs bit-parallel on a generated or FIRRTL-ingested
// netlist (sim.LaneSimulator + monitor.LaneBank), behind the same Executor
// seam the behavioral DUT models use. This is the piece that turns the
// 64-testcases-per-word evaluator into end-to-end fuzzing throughput
// (docs/PERFORMANCE.md): a campaign over a LaneDUT runs up to GroupWidth
// testcase pairs per simulator pass instead of one.

package fuzz

import (
	"fmt"

	"sonar/internal/hdl"
	"sonar/internal/isa"
	"sonar/internal/monitor"
	"sonar/internal/obs"
	"sonar/internal/sim"
	"sonar/internal/trace"
)

// Default per-execution schedule of a LaneDUT: how many netlist cycles one
// testcase execution simulates and how often the testcase-derived stimulus
// is re-poked onto the input signals.
const (
	DefaultLaneCycles = 512
	DefaultLaneHold   = 8
)

// LaneDUT is a netlist-backed campaign executor: one elaboration of the
// design, compiled for the lane simulator, with one lane bank monitoring
// it. Every execution is a lane pass, whatever the lane width: a group runs
// up to chunk/2 pairs per pass, and Execute runs its testcase alone in
// lane 0.
//
// Execution semantics: every pass resets the simulator and monitor, opens
// the observation window for the whole run, and drives each input of lane
// i with a stimulus derived from (testcase, secret, cycle, input index) —
// re-poked every hold cycles — for a fixed budget of cycles. The stimulus
// never depends on the lane index, so a pair's per-lane trajectory is a
// pure function of (testcase, secret): snapshots are byte-identical at
// every lane width and equal to a scalar simulator's (TestNetlistLaneMatrix
// pins the campaign-level consequence against a scalar reference).
//
// A LaneDUT produces no commit logs (Execution.Log stays nil): netlist
// campaigns exercise contention coverage, intervals, and corpus feedback;
// dual-differential commit-log findings remain a behavioral-DUT feature.
type LaneDUT struct {
	analysis *trace.Analysis // ContentionAnalysis result, bound to the netlist
	lanes    *sim.LaneSimulator
	bank     *monitor.LaneBank
	ins      []*hdl.Signal // inputs, creation order
	cycles   int
	hold     int

	// digs holds the stimulus digest of each lane of the next pass.
	digs [hdl.Lanes]uint64
	// Arenas, indexed by slot (group pair i occupies slots 2i and 2i+1):
	// every Execution an ExecuteGroup returns stays valid until the next
	// group, per the GroupExecutor contract. Execute alternates between
	// slots 0 and 1, like DUT.Execute, so an A/B pair of direct Execute
	// calls stays valid together.
	execs [hdl.Lanes]Execution
	snaps [hdl.Lanes]monitor.Snapshot
	alt   int
	// passes counts the lane passes run.
	passes int
}

// monitorKeep returns the signals a contention monitor reads — every
// monitored point's request data and valid signals — which is exactly the
// keep set the optimizing compile pipeline needs to preserve monitor
// behavior while eliminating everything unobserved.
func monitorKeep(an *trace.Analysis) []*hdl.Signal {
	var keep []*hdl.Signal
	for _, p := range an.Monitored() {
		for i := range p.Requests {
			keep = append(keep, p.Requests[i].Data)
			keep = append(keep, p.Requests[i].Valids...)
		}
	}
	return keep
}

// NewLaneDUT builds a netlist-backed executor. elab must be a deterministic
// elaborator (gen designs, checked FIRRTL parses); it is called once. shared
// is the campaign's shared contention analysis, rebound to the elaboration
// by dense signal id; nil runs the analysis on it.
// cycles/hold <= 0 select DefaultLaneCycles/DefaultLaneHold.
func NewLaneDUT(elab func() (*hdl.Netlist, error), shared *trace.Analysis, cycles, hold int) (*LaneDUT, error) {
	if cycles <= 0 {
		cycles = DefaultLaneCycles
	}
	if hold <= 0 {
		hold = DefaultLaneHold
	}
	net, err := elab()
	if err != nil {
		return nil, fmt.Errorf("fuzz: lane DUT elaboration: %w", err)
	}
	an := shared
	if an == nil {
		an = trace.Analyze(net)
	} else if an.Netlist != net {
		an = an.Rebind(net)
	}
	lanes, err := sim.NewLanesOpt(net, sim.CompileOptions{Keep: monitorKeep(an)})
	if err != nil {
		return nil, fmt.Errorf("fuzz: lane DUT compile: %w", err)
	}
	d := &LaneDUT{
		analysis: an,
		lanes:    lanes,
		bank:     monitor.NewLaneBank(an, monitor.Config{}, lanes),
		cycles:   cycles,
		hold:     hold,
	}
	for _, s := range net.Signals() {
		if s.Kind() == hdl.Input {
			d.ins = append(d.ins, s)
		}
	}
	return d, nil
}

// LaneDUTFactory wraps a deterministic elaborator into an Executor factory
// for the parallel and lease engines: the contention analysis runs once, on
// a probe elaboration, and every built instance rebinds it — the netlist
// analog of SharedAnalysisFactory. The probe elaboration also surfaces
// elaboration errors eagerly; a later elaboration failure inside a worker
// panics and is recovered by the engine's worker-fault path.
func LaneDUTFactory(elab func() (*hdl.Netlist, error), cycles, hold int) (func() Executor, error) {
	probe, err := elab()
	if err != nil {
		return nil, err
	}
	shared := trace.Analyze(probe)
	return func() Executor {
		d, err := NewLaneDUT(elab, shared, cycles, hold)
		if err != nil {
			panic(fmt.Sprintf("fuzz: lane DUT build: %v", err))
		}
		return d
	}, nil
}

// ContentionAnalysis implements Executor.
func (d *LaneDUT) ContentionAnalysis() *trace.Analysis { return d.analysis }

// observeCompile publishes the simulator compile gauges
// (sonar_sim_spilled_nodes, sonar_sim_eliminated_nodes; docs/SERVICE.md)
// when the campaign's executor is netlist-backed. Behavioral DUTs don't
// implement CompileStats, so their campaigns leave the gauges unpublished.
func observeCompile(o *obs.Observer, d Executor) {
	c, ok := d.(interface{ CompileStats() sim.CompileStats })
	if !ok {
		return
	}
	cs := c.CompileStats()
	o.SimCompileInfo(cs.Spilled, cs.Eliminated+cs.Collapsed+cs.Fused)
}

// CompileStats returns what the optimizing compile pipeline did to the
// design — the counts the sim observability gauges publish.
func (d *LaneDUT) CompileStats() sim.CompileStats { return d.lanes.Stats() }

// GroupWidth implements GroupExecutor: one group is hdl.Lanes/2 testcase
// pairs (each pair occupies two lanes, A in lane 2i, B in lane 2i+1).
func (d *LaneDUT) GroupWidth() int { return hdl.Lanes / 2 }

// Execute implements Executor: one testcase under one secret, alone in
// lane 0 of a pass.
//
//sonar:alloc-free
func (d *LaneDUT) Execute(tc *Testcase, secret uint64) *Execution {
	slot := d.alt
	d.alt ^= 1
	d.digs[0] = tcDigest(tc, secret)
	d.pass(1, slot)
	return &d.execs[slot]
}

// ExecuteGroup implements GroupExecutor: it packs max(1, chunk/2) pairs per
// lane pass, pair s of a pass in lanes 2s (secretA) and 2s+1 (secretB).
func (d *LaneDUT) ExecuteGroup(tcs []*Testcase, secretA, secretB uint64, chunk int, dst []ExecPair) []ExecPair {
	if len(tcs) > d.GroupWidth() {
		panic(fmt.Sprintf("fuzz: lane group of %d pairs exceeds width %d", len(tcs), d.GroupWidth()))
	}
	perPass := max(1, chunk/2)
	for base := 0; base < len(tcs); base += perPass {
		pass := tcs[base:min(base+perPass, len(tcs))]
		for s, tc := range pass {
			d.digs[2*s] = tcDigest(tc, secretA)
			d.digs[2*s+1] = tcDigest(tc, secretB)
		}
		d.pass(2*len(pass), 2*base)
	}
	for i := range tcs {
		dst = append(dst, ExecPair{A: &d.execs[2*i], B: &d.execs[2*i+1]})
	}
	return dst
}

// pass executes one lane pass over lanes [0, n): lane i is driven from
// d.digs[i] and snapshot into arena slot slot+i. Lanes from n on are never
// poked or snapshot — they evolve from reset state, harmlessly.
//
//sonar:alloc-free
func (d *LaneDUT) pass(n, slot int) {
	d.passes++
	d.lanes.Reset()
	d.bank.Reset()
	d.bank.SetWindowAll(true)
	digs := d.digs[:n]
	for cyc := 0; cyc < d.cycles; cyc++ {
		if cyc%d.hold == 0 {
			for k, in := range d.ins {
				for lane, dig := range digs {
					d.lanes.SetLane(in, lane, stimVal(dig, cyc, k))
				}
			}
		}
		d.lanes.Tick()
	}
	for lane := range digs {
		snap := &d.snaps[slot+lane]
		d.bank.SnapshotLaneInto(lane, snap)
		d.execs[slot+lane] = Execution{Snap: snap, Cycles: int64(d.cycles)}
	}
}

// tcDigest folds a testcase and its secret into one 64-bit stimulus seed.
// Every field that distinguishes testcases feeds the fold, so mutations —
// chain edits, probe offsets, pattern swaps, attacker programs — all reach
// the netlist as different input trajectories.
//
//sonar:alloc-free
func tcDigest(tc *Testcase, secret uint64) uint64 {
	h := uint64(1469598103934665603) ^ secret*0x9e3779b97f4a7c15
	h = foldInstrs(h, tc.HeadChain)
	h = foldInstrs(h, tc.Prologue)
	for _, p := range tc.Patterns {
		h = fold(h, uint64(p)+1)
	}
	h = foldInstrs(h, tc.Epilogue)
	h = fold(h, uint64(tc.Probe)+0x51)
	h = fold(h, uint64(tc.ProbeOffset))
	h = fold(h, uint64(tc.ProbeBase)<<32|uint64(uint32(tc.ProbeDelay)))
	h = foldInstrs(h, tc.Attacker)
	return mix64(h)
}

//sonar:alloc-free
func foldInstrs(h uint64, ins []isa.Instr) uint64 {
	h = fold(h, uint64(len(ins))+0xa5)
	for i := range ins {
		in := &ins[i]
		h = fold(h, uint64(in.Op)|uint64(in.Rd)<<8|uint64(in.Rs1)<<16|uint64(in.Rs2)<<24)
		h = fold(h, uint64(in.Imm))
	}
	return h
}

// fold is one FNV-1a step.
func fold(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// mix64 is a splitmix64-style finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// stimVal derives the input stimulus for (testcase digest, cycle, input
// index). It is independent of the lane index by construction.
//
//sonar:alloc-free
func stimVal(dig uint64, cyc, input int) uint64 {
	return mix64(dig ^ uint64(cyc)*0x9e3779b97f4a7c15 ^ uint64(input)<<48)
}
