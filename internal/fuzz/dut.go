// Package fuzz implements Sonar's microarchitectural-state-guided fuzzing
// (paper §6): the secret-dependent testcase template, seed retention and
// selection driven by the reqsIntvl feedback, and the adaptive directed
// mutation strategy that shifts request timing by growing or shrinking the
// dependency chain at the head of a testcase.
package fuzz

import (
	"slices"
	"sync"

	"sonar/internal/isa"
	"sonar/internal/monitor"
	"sonar/internal/trace"
	"sonar/internal/uarch"
)

// Memory layout shared by all testcases.
const (
	// CodeBase is where the victim program is placed.
	CodeBase uint64 = 0x1_0000
	// HandlerBase is where exception handlers are placed.
	HandlerBase uint64 = 0x2_0000
	// AttackerCodeBase is where the dual-core attacker program is placed.
	AttackerCodeBase uint64 = 0x3_0000
	// DataBase is the start of the victim data window.
	DataBase uint64 = 0x4_0000
	// AttackerDataBase is the start of the attacker data window.
	AttackerDataBase uint64 = 0x6_0000
	// SecretAddr holds the secret value during fuzzing (unprivileged).
	SecretAddr uint64 = 0x8_0000
	// PrivBase..PrivLimit is the privileged range used by Meltdown-style
	// exploitability analysis (package attack).
	PrivBase  uint64 = 0x10_0000
	PrivLimit uint64 = 0x10_1000
)

// Reserved registers (never touched by random fillers).
const (
	// RegChain carries the head dependency chain value.
	RegChain = 9
	// RegProbe0..2 are scratch registers for probe address computation.
	RegProbe0 = 10
	RegProbe1 = 11
	RegProbe2 = 12
	// RegDataBase holds DataBase.
	RegDataBase = 28
	// RegSecretBase holds SecretAddr.
	RegSecretBase = 29
	// RegSecret receives the loaded secret value.
	RegSecret = 30
	// RegTmp is scratch for secret-dependent ops.
	RegTmp = 31
)

// DUT bundles an elaborated SoC with its contention-point analysis and
// instrumentation, ready to execute testcases.
type DUT struct {
	SoC      *uarch.SoC       // the elaborated device
	Analysis *trace.Analysis  // §5 contention-point identification results
	Mon      *monitor.Monitor // reqsIntvl/state monitor over Analysis' points
	// WindowAlwaysOpen disables the secret-dependent monitoring window:
	// states are collected over the whole execution (the §6.1 ablation).
	WindowAlwaysOpen bool

	// arenas are the two recycled execution slots Execute alternates
	// between; see Execute for the aliasing contract.
	arenas   [2]execArena
	arenaIdx int
	// halt is the cached halt-others program (undecodable address).
	halt *isa.Program
	// prefix is the shared-prefix snapshot Execute resumes from, and
	// resumes counts the runs that did.
	prefix  sharedPrefix
	resumes int
}

// execArena holds the buffers one Execute slot recycles across runs: the
// returned Execution value itself, the victim and attacker commit logs, the
// snapshot, and the built programs. After warmup, a run through the slot
// allocates nothing.
type execArena struct {
	ex     Execution
	log    []uarch.CommitRecord
	attLog []uarch.CommitRecord
	snap   monitor.Snapshot
	prog   isa.Program
	att    isa.Program
}

// NewDUT analyzes and instruments a SoC. Similarity matching for persistent
// contention uses cacheline granularity.
func NewDUT(soc *uarch.SoC) *DUT {
	return NewDUTWithAnalysis(soc, trace.Analyze(soc.Net))
}

// NewDUTWithAnalysis instruments a SoC using an existing analysis of the
// same design. If the analysis was computed on a different (but identically
// elaborated) netlist instance, it is rebound onto this SoC's netlist by
// dense signal id — the path parallel campaigns use to analyze once and
// share the result across every executor they build.
func NewDUTWithAnalysis(soc *uarch.SoC, a *trace.Analysis) *DUT {
	if a.Netlist != soc.Net {
		a = a.Rebind(soc.Net)
	}
	m := monitor.New(a, monitor.Config{SimilarityMask: ^uint64(uarch.LineBytes - 1)})
	soc.Pulser.Bind(m)
	d := &DUT{SoC: soc, Analysis: a, Mon: m}
	for _, c := range soc.Cores {
		c.SetWindowObserver(&windowGate{d})
	}
	soc.Mem.SetPrivRange(PrivBase, PrivLimit)
	return d
}

// SharedAnalysisFactory wraps a SoC constructor into a DUT factory that runs
// the contention-point analysis exactly once and rebinds it to every
// subsequently elaborated SoC. It is safe for concurrent use; parallel
// engines build workers concurrently.
func SharedAnalysisFactory(newSoC func() *uarch.SoC) func() *DUT {
	var (
		mu     sync.Mutex
		shared *trace.Analysis
	)
	return func() *DUT {
		soc := newSoC()
		mu.Lock()
		if shared == nil {
			shared = trace.Analyze(soc.Net)
		}
		a := shared
		mu.Unlock()
		return NewDUTWithAnalysis(soc, a)
	}
}

// windowGate forwards the cores' window transitions to the monitor unless
// the whole-run ablation pins the window open.
type windowGate struct{ d *DUT }

// SetWindow implements uarch.WindowObserver.
func (g *windowGate) SetWindow(open bool) {
	if g.d.WindowAlwaysOpen {
		g.d.Mon.SetWindow(true)
		return
	}
	g.d.Mon.SetWindow(open)
}

// Execution is the observable outcome of one testcase run under one secret.
type Execution struct {
	// Log is the victim core's commit log.
	Log []uarch.CommitRecord
	// AttackerLog is the second core's commit log (dual-core scenario).
	AttackerLog []uarch.CommitRecord
	// Snap is the contention-state snapshot within the monitoring window.
	Snap *monitor.Snapshot
	// Cycles is the total cycle count of the run.
	Cycles int64
}

// Execute resets the DUT, installs the secret, and runs the testcase to
// completion under the given secret value.
//
// The two runs of a dual-secret pair share every cycle before the secret
// can matter, so Execute runs that shared prefix once. A full run takes a
// snapshot (uarch.Snapshot) at the last cycle boundary before the victim
// can dispatch an instruction of the secret-dependent range, which is the
// last boundary before the monitoring window can open (SoC.RunToSecret).
// An Execute whose inputs other than the secret equal that run's (the built
// programs, the secret range, each core's window observer, the privileged
// range) restores the snapshot, writes its own secret, and runs on from
// there. Reuse is keyed on content, so a result never depends on what the
// DUT ran before. A run takes no snapshot when its prefix read or wrote a
// secret byte, when the monitor was not idle at the snapshot point, under
// WindowAlwaysOpen, or while any netlist watcher other than the monitor's
// hooks exists (such a watcher must see every value change).
//
// The returned Execution and everything it references live in one of two
// recycled arenas: a result stays valid across exactly one subsequent
// Execute on the same DUT (the dual-secret A/B pattern every caller uses)
// and is overwritten by the one after that. Callers that need longer-lived
// data must copy it out, as package detect does. Steady-state runs on a
// warm DUT perform no heap allocations.
//
//sonar:alloc-free
func (d *DUT) Execute(tc *Testcase, secret uint64) *Execution {
	ar := &d.arenas[d.arenaIdx]
	d.arenaIdx = 1 - d.arenaIdx

	sStart, sEnd := tc.BuildInto(&ar.prog)
	cores := d.SoC.Cores
	victim := cores[0]
	runAttacker := len(cores) > 1 && len(tc.Attacker) > 0
	if runAttacker {
		tc.BuildAttackerInto(&ar.att)
	}
	victim.CommitLog = ar.log[:0] // give the core this slot's private log
	if runAttacker {
		cores[1].CommitLog = ar.attLog[:0]
	}

	key := prefixKey{sStart: sStart, sEnd: sEnd, runAttacker: runAttacker}
	key.privBase, key.privLimit = d.SoC.Mem.PrivRange()
	d.Mon.Reset()
	if d.prefix.matches(d, ar, key) {
		d.resumes++
		d.SoC.Restore(&d.prefix.snap)
		victim.SetProgram(&ar.prog)
		for _, c := range cores[1:] {
			if runAttacker {
				c.SetProgram(&ar.att)
			} else {
				c.SetProgram(d.halt)
			}
		}
		d.SoC.Mem.Write(SecretAddr, secret, 8)
	} else {
		d.SoC.Reset()
		if d.WindowAlwaysOpen {
			d.Mon.SetWindow(true)
		}
		d.SoC.Mem.Write(SecretAddr, secret, 8)
		// Armed before the programs load, so an image overlapping the
		// secret also rules the snapshot out.
		d.SoC.Mem.Watch(SecretAddr, 8)
		victim.LoadProgram(&ar.prog)
		victim.SetSecretRange(sStart, sEnd)
		if runAttacker {
			cores[1].LoadProgram(&ar.att)
		} else if len(cores) > 1 {
			d.haltOthers()
		}
		d.prefix.valid = false
		if d.SoC.RunToSecret() && !d.SoC.Mem.WatchHit() && d.reusable() {
			d.prefix.take(d, ar, key)
		}
	}
	d.SoC.Run()
	ar.log = victim.CommitLog // the run may have grown the buffer
	d.Mon.SnapshotInto(&ar.snap)

	ex := &ar.ex
	*ex = Execution{Log: ar.log, Snap: &ar.snap, Cycles: d.SoC.Cycle()}
	if runAttacker {
		ar.attLog = cores[1].CommitLog
		ex.AttackerLog = ar.attLog
	}
	return ex
}

// sharedPrefix is the snapshot of the last full run's shared prefix and
// the inputs it was taken under, copied so later runs can compare them.
type sharedPrefix struct {
	valid     bool
	snap      uarch.Snapshot
	key       prefixKey
	prog, att isa.Program
	windows   []uarch.WindowObserver
}

// prefixKey is the comparable part of a run's inputs other than the secret.
type prefixKey struct {
	sStart, sEnd        int
	runAttacker         bool
	privBase, privLimit uint64
}

// take snapshots the SoC and records the inputs of the run in ar.
//
//sonar:alloc-free
func (p *sharedPrefix) take(d *DUT, ar *execArena, key prefixKey) {
	d.SoC.Snapshot(&p.snap)
	p.key = key
	p.prog.Base, p.prog.Code = ar.prog.Base, append(p.prog.Code[:0], ar.prog.Code...)
	if key.runAttacker {
		p.att.Base, p.att.Code = ar.att.Base, append(p.att.Code[:0], ar.att.Code...)
	}
	p.windows = p.windows[:0]
	for _, c := range d.SoC.Cores {
		p.windows = append(p.windows, c.WindowObserver())
	}
	p.valid = true
}

// matches reports whether the run with the inputs in ar and key may resume
// from the snapshot: every input but the secret equals the snapshot's, and
// the DUT, its monitor just reset, is still reusable.
func (p *sharedPrefix) matches(d *DUT, ar *execArena, key prefixKey) bool {
	if !p.valid || key != p.key || !sameProgram(&ar.prog, &p.prog) ||
		(key.runAttacker && !sameProgram(&ar.att, &p.att)) {
		return false
	}
	for i, c := range d.SoC.Cores {
		if c.WindowObserver() != p.windows[i] {
			return false
		}
	}
	return d.reusable()
}

// reusable reports whether a run may take or resume from a snapshot: the
// window is not pinned open, the monitor is idle, and no netlist watcher
// other than the monitor's hooks exists.
func (d *DUT) reusable() bool {
	return !d.WindowAlwaysOpen && d.Mon.Idle() && d.SoC.Net.NumWatchHooks() == d.Mon.Hooks()
}

func sameProgram(a, b *isa.Program) bool {
	return a.Base == b.Base && slices.Equal(a.Code, b.Code)
}

func (d *DUT) haltOthers() {
	if d.halt == nil {
		// An empty program at an undecodable address halts immediately.
		d.halt = isa.NewProgram(0xF_0000, isa.Instr{Op: isa.ECALL})
	}
	for _, c := range d.SoC.Cores[1:] {
		c.LoadProgram(d.halt)
	}
}
