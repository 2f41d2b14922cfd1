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

// LaneDUT is a netlist-backed campaign executor. It holds two independent
// elaborations of the same design: a scalar simulator + monitor for the
// reference path (Options.Lanes <= 1, and the Executor.Execute method), and
// a lane simulator + lane bank for the bit-parallel path. Two instances are
// required because the lane evaluator's prim spill scribbles over the scalar
// value plane of spilled signals — the scalar side must never share a
// netlist with the lane side.
//
// Execution semantics: every execution resets the simulator and monitor,
// opens the observation window for the whole run, and drives each input
// with a stimulus derived from (testcase, secret, cycle, input index) —
// re-poked every hold cycles — for a fixed budget of cycles. The stimulus
// never depends on the lane index, so a pair's per-lane trajectory is a
// pure function of (testcase, secret) and the lane and scalar paths produce
// byte-identical monitor snapshots (TestNetlistLaneMatrix pins the
// campaign-level consequence).
//
// A LaneDUT produces no commit logs (Execution.Log stays nil): netlist
// campaigns exercise contention coverage, intervals, and corpus feedback;
// dual-differential commit-log findings remain a behavioral-DUT feature.
type LaneDUT struct {
	analysis *trace.Analysis // lane-side binding; ContentionAnalysis result
	scalar   *sim.Simulator
	smon     *monitor.Monitor
	lanes    *sim.LaneSimulator
	bank     *monitor.LaneBank
	sIns     []*hdl.Signal // scalar-side inputs, creation order
	lIns     []*hdl.Signal // lane-side inputs, creation order
	cycles   int
	hold     int

	// Group arenas, indexed by lane (pair i occupies lanes 2i and 2i+1):
	// every Execution an ExecuteGroup returns stays valid until the next
	// group, per the GroupExecutor contract.
	execs [hdl.Lanes]Execution
	snaps [hdl.Lanes]monitor.Snapshot
	// Single-Execute arenas, alternating like DUT.Execute's so an A/B pair
	// of direct Execute calls stays valid together.
	sExecs [2]Execution
	sSnaps [2]monitor.Snapshot
	sIdx   int
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
// elaborator (gen designs, checked FIRRTL parses): it is called twice, once
// per simulator instance, and both elaborations must be identical. shared
// is the campaign's shared contention analysis, rebound to each instance by
// dense signal id; nil runs the analysis on the first elaboration.
// cycles/hold <= 0 select DefaultLaneCycles/DefaultLaneHold.
func NewLaneDUT(elab func() (*hdl.Netlist, error), shared *trace.Analysis, cycles, hold int) (*LaneDUT, error) {
	if cycles <= 0 {
		cycles = DefaultLaneCycles
	}
	if hold <= 0 {
		hold = DefaultLaneHold
	}
	scalarNet, err := elab()
	if err != nil {
		return nil, fmt.Errorf("fuzz: lane DUT scalar elaboration: %w", err)
	}
	laneNet, err := elab()
	if err != nil {
		return nil, fmt.Errorf("fuzz: lane DUT lane elaboration: %w", err)
	}
	if shared == nil {
		shared = trace.Analyze(scalarNet)
	}
	sAn := shared
	if sAn.Netlist != scalarNet {
		sAn = shared.Rebind(scalarNet)
	}
	lAn := shared.Rebind(laneNet)

	scalar, err := sim.NewOpt(scalarNet, sim.CompileOptions{Keep: monitorKeep(sAn)})
	if err != nil {
		return nil, fmt.Errorf("fuzz: lane DUT scalar compile: %w", err)
	}
	lanes, err := sim.NewLanesOpt(laneNet, sim.CompileOptions{Keep: monitorKeep(lAn)})
	if err != nil {
		return nil, fmt.Errorf("fuzz: lane DUT lane compile: %w", err)
	}
	d := &LaneDUT{
		analysis: lAn,
		scalar:   scalar,
		smon:     monitor.New(sAn, monitor.Config{}),
		lanes:    lanes,
		bank:     monitor.NewLaneBank(lAn, monitor.Config{}, lanes),
		cycles:   cycles,
		hold:     hold,
	}
	for _, s := range scalarNet.Signals() {
		if s.Kind() == hdl.Input {
			d.sIns = append(d.sIns, s)
		}
	}
	for _, s := range laneNet.Signals() {
		if s.Kind() == hdl.Input {
			d.lIns = append(d.lIns, s)
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

// CompileStats returns what the optimizing compile pipeline did to the lane
// side of the design — the counts the sim observability gauges publish.
func (d *LaneDUT) CompileStats() sim.CompileStats { return d.lanes.Stats() }

// GroupWidth implements GroupExecutor: one group is hdl.Lanes/2 testcase
// pairs (each pair occupies two lanes, A in lane 2i, B in lane 2i+1).
func (d *LaneDUT) GroupWidth() int { return hdl.Lanes / 2 }

// Execute implements Executor: the scalar reference path for one testcase
// under one secret.
//
//sonar:alloc-free
func (d *LaneDUT) Execute(tc *Testcase, secret uint64) *Execution {
	idx := d.sIdx
	d.sIdx ^= 1
	snap := &d.sSnaps[idx]
	d.runScalar(tc, secret, snap)
	e := &d.sExecs[idx]
	*e = Execution{Snap: snap, Cycles: int64(d.cycles)}
	return e
}

// ExecuteGroup implements GroupExecutor. chunk <= 1 runs every pair through
// the scalar reference simulator; chunk >= 2 packs chunk/2 pairs per lane
// pass and evaluates them bit-parallel. Both paths write the same group
// arenas and produce byte-identical snapshots per pair.
func (d *LaneDUT) ExecuteGroup(tcs []*Testcase, secretA, secretB uint64, chunk int, dst []ExecPair) []ExecPair {
	if len(tcs) > d.GroupWidth() {
		panic(fmt.Sprintf("fuzz: lane group of %d pairs exceeds width %d", len(tcs), d.GroupWidth()))
	}
	if chunk <= 1 {
		for i, tc := range tcs {
			a, b := &d.snaps[2*i], &d.snaps[2*i+1]
			d.runScalar(tc, secretA, a)
			d.runScalar(tc, secretB, b)
			d.execs[2*i] = Execution{Snap: a, Cycles: int64(d.cycles)}
			d.execs[2*i+1] = Execution{Snap: b, Cycles: int64(d.cycles)}
		}
	} else {
		pairsPerPass := chunk / 2
		for base := 0; base < len(tcs); base += pairsPerPass {
			end := base + pairsPerPass
			if end > len(tcs) {
				end = len(tcs)
			}
			d.runLanePass(tcs[base:end], base, secretA, secretB)
		}
	}
	for i := range tcs {
		dst = append(dst, ExecPair{A: &d.execs[2*i], B: &d.execs[2*i+1]})
	}
	return dst
}

// runScalar executes one (testcase, secret) on the scalar reference
// simulator and snapshots the monitor into snap.
//
//sonar:alloc-free
func (d *LaneDUT) runScalar(tc *Testcase, secret uint64, snap *monitor.Snapshot) {
	d.scalar.Reset()
	d.smon.Reset()
	d.smon.SetWindow(true)
	dig := tcDigest(tc, secret)
	for cyc := 0; cyc < d.cycles; cyc++ {
		if cyc%d.hold == 0 {
			for k, in := range d.sIns {
				in.Set(stimVal(dig, cyc, k))
			}
		}
		d.scalar.Tick()
	}
	d.smon.SnapshotInto(snap)
}

// runLanePass executes one lane pass: pair s of tcs occupies lanes 2s
// (secretA) and 2s+1 (secretB). base is the pairs' offset within the group,
// for arena placement. Lanes beyond the pass's pairs are never poked or
// snapshot — they evolve from reset state, harmlessly.
//
//sonar:alloc-free
func (d *LaneDUT) runLanePass(tcs []*Testcase, base int, secretA, secretB uint64) {
	d.lanes.Reset()
	d.bank.Reset()
	d.bank.SetWindowAll(true)
	var digA, digB [hdl.Lanes / 2]uint64
	for s, tc := range tcs {
		digA[s] = tcDigest(tc, secretA)
		digB[s] = tcDigest(tc, secretB)
	}
	for cyc := 0; cyc < d.cycles; cyc++ {
		if cyc%d.hold == 0 {
			for k, in := range d.lIns {
				for s := range tcs {
					d.lanes.SetLane(in, 2*s, stimVal(digA[s], cyc, k))
					d.lanes.SetLane(in, 2*s+1, stimVal(digB[s], cyc, k))
				}
			}
		}
		d.lanes.Tick()
	}
	for s := range tcs {
		i := base + s
		a, b := &d.snaps[2*i], &d.snaps[2*i+1]
		d.bank.SnapshotLaneInto(2*s, a)
		d.bank.SnapshotLaneInto(2*s+1, b)
		d.execs[2*i] = Execution{Snap: a, Cycles: int64(d.cycles)}
		d.execs[2*i+1] = Execution{Snap: b, Cycles: int64(d.cycles)}
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
