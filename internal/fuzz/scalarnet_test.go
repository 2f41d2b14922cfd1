package fuzz

import (
	"fmt"

	"sonar/internal/hdl"
	"sonar/internal/monitor"
	"sonar/internal/sim"
	"sonar/internal/trace"
)

// scalarNetDUT is the scalar reference for LaneDUT: the same elaboration,
// compile keep set, monitor configuration and stimulus (tcDigest, stimVal),
// run on sim.Simulator + monitor.Monitor one execution at a time. It
// implements GroupExecutor with LaneDUT's group width and runs a group's
// pairs serially, ignoring chunk, so a campaign on it makes the same RNG
// draws as one on a LaneDUT and must produce the same bytes.
type scalarNetDUT struct {
	analysis *trace.Analysis
	sim      *sim.Simulator
	mon      *monitor.Monitor
	ins      []*hdl.Signal
	cycles   int
	hold     int

	execs [hdl.Lanes]Execution
	snaps [hdl.Lanes]monitor.Snapshot
	alt   int
}

// newScalarNetDUT mirrors NewLaneDUT on the scalar simulator.
func newScalarNetDUT(elab func() (*hdl.Netlist, error), shared *trace.Analysis, cycles, hold int) (*scalarNetDUT, error) {
	net, err := elab()
	if err != nil {
		return nil, err
	}
	an := shared.Rebind(net)
	s, err := sim.NewOpt(net, sim.CompileOptions{Keep: monitorKeep(an)})
	if err != nil {
		return nil, err
	}
	d := &scalarNetDUT{analysis: an, sim: s, mon: monitor.New(an, monitor.Config{}), cycles: cycles, hold: hold}
	for _, sig := range net.Signals() {
		if sig.Kind() == hdl.Input {
			d.ins = append(d.ins, sig)
		}
	}
	return d, nil
}

// scalarNetFactory is netExecFactory's scalar reference twin: the same
// design, schedule and shared analysis.
func scalarNetFactory(elab func() (*hdl.Netlist, error), cycles, hold int) (func() Executor, error) {
	probe, err := elab()
	if err != nil {
		return nil, err
	}
	shared := trace.Analyze(probe)
	return func() Executor {
		d, err := newScalarNetDUT(elab, shared, cycles, hold)
		if err != nil {
			panic(fmt.Sprintf("fuzz: scalar netlist DUT build: %v", err))
		}
		return d
	}, nil
}

func (d *scalarNetDUT) ContentionAnalysis() *trace.Analysis { return d.analysis }

func (d *scalarNetDUT) GroupWidth() int { return hdl.Lanes / 2 }

func (d *scalarNetDUT) Execute(tc *Testcase, secret uint64) *Execution {
	slot := d.alt
	d.alt ^= 1
	d.run(tc, secret, slot)
	return &d.execs[slot]
}

func (d *scalarNetDUT) ExecuteGroup(tcs []*Testcase, secretA, secretB uint64, _ int, dst []ExecPair) []ExecPair {
	for i, tc := range tcs {
		d.run(tc, secretA, 2*i)
		d.run(tc, secretB, 2*i+1)
		dst = append(dst, ExecPair{A: &d.execs[2*i], B: &d.execs[2*i+1]})
	}
	return dst
}

// run executes one (testcase, secret) and snapshots the monitor into slot.
func (d *scalarNetDUT) run(tc *Testcase, secret uint64, slot int) {
	d.mon.Reset() // shuts the window before the reset's batch Restore
	d.sim.Reset()
	d.mon.SetWindow(true)
	dig := tcDigest(tc, secret)
	for cyc := 0; cyc < d.cycles; cyc++ {
		if cyc%d.hold == 0 {
			for k, in := range d.ins {
				in.Set(stimVal(dig, cyc, k))
			}
		}
		d.sim.Tick()
	}
	snap := &d.snaps[slot]
	d.mon.SnapshotInto(snap)
	d.execs[slot] = Execution{Snap: snap, Cycles: int64(d.cycles)}
}
