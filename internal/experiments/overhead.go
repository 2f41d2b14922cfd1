package experiments

import (
	"fmt"
	"strings"
	"time"

	"sonar/internal/boom"
	"sonar/internal/fuzz"
	"sonar/internal/isa"
	"sonar/internal/monitor"
	"sonar/internal/nutshell"
	"sonar/internal/trace"
	"sonar/internal/uarch"
)

// Table2Row is one DUT's instrumentation overhead measurement.
type Table2Row struct {
	DUT string // DUT name ("boom" or "nutshell")
	// ContentionPoints is the number of traced points.
	ContentionPoints int
	// MonitoredPoints is the instrumented subset.
	MonitoredPoints int
	// CompileBareMs / CompileInstMs are elaboration(+analysis+
	// instrumentation) times, the paper's compile-time columns.
	CompileBareMs, CompileInstMs float64
	// Statements approximates the generated monitoring code volume
	// (the paper's "#New verilog" column).
	Statements int
	// SimBareHz / SimInstHz are simulation speeds (cycles per wall second)
	// on a fixed workload without and with instrumentation.
	SimBareHz, SimInstHz float64
	// FuzzPerHour extrapolates the instrumented fuzzing throughput.
	FuzzPerHour float64
}

// CompileOverhead is the relative compile-time increase (paper: 43-45%).
func (r Table2Row) CompileOverhead() float64 {
	if r.CompileBareMs == 0 {
		return 0
	}
	return r.CompileInstMs/r.CompileBareMs - 1
}

// SimSlowdown is the relative simulation slowdown (paper: 26-38%).
func (r Table2Row) SimSlowdown() float64 {
	if r.SimBareHz == 0 {
		return 0
	}
	return 1 - r.SimInstHz/r.SimBareHz
}

// alwaysOpen pins the monitoring window open during simulation-speed
// measurement (worst-case sampling load), ignoring the cores' transitions.
type alwaysOpen struct{ m *monitor.Monitor }

// SetWindow implements uarch.WindowObserver.
func (a alwaysOpen) SetWindow(bool) { a.m.SetWindow(true) }

// workload is the fixed program used for simulation-speed measurement.
func workload() *isa.Program {
	code := []isa.Instr{
		{Op: isa.LUI, Rd: 28, Imm: 0x40},
		isa.I(isa.ADDI, 1, 0, 1),
	}
	for i := 0; i < 40; i++ {
		code = append(code,
			isa.I(isa.ADDI, 1, 1, 1),
			isa.R(isa.MUL, 2, 1, 1),
			isa.Load(isa.LD, 3, 28, int64(i%32)*64),
			isa.R(isa.XOR, 4, 2, 3),
			isa.Store(isa.SD, 4, 28, int64(i%16)*64),
		)
	}
	code = append(code, isa.R(isa.DIV, 5, 2, 1), isa.Instr{Op: isa.ECALL})
	return isa.NewProgram(0x1_0000, code...)
}

// measureSimHzPair measures bare and instrumented simulation speeds with
// interleaved repetitions (after one warmup each), so allocator and cache
// warmup effects hit both sides equally.
func measureSimHzPair(bare, inst *uarch.SoC, reps int) (bareHz, instHz float64) {
	prog := workload()
	bare.RunProgram(prog) // warmup
	inst.RunProgram(prog)
	var bareCycles, instCycles int64
	var bareSec, instSec float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		bare.RunProgram(prog)
		bareSec += time.Since(t0).Seconds()
		bareCycles += bare.Cycle()
		t1 := time.Now()
		inst.RunProgram(prog)
		instSec += time.Since(t1).Seconds()
		instCycles += inst.Cycle()
	}
	if bareSec == 0 || instSec == 0 {
		return 0, 0
	}
	return float64(bareCycles) / bareSec, float64(instCycles) / instSec
}

// Table2 measures instrumentation overhead on both DUTs (paper Table 2).
func Table2(reps int) []Table2Row {
	if reps <= 0 {
		reps = 20
	}
	var out []Table2Row
	builders := []struct {
		name string
		mk   func() *uarch.SoC
	}{
		{"nutshell", nutshell.New},
		{"boom", boom.New},
	}
	for _, bld := range builders {
		row := Table2Row{DUT: bld.name}

		// Bare compile: elaboration only.
		t0 := time.Now()
		bare := bld.mk()
		row.CompileBareMs = float64(time.Since(t0).Microseconds()) / 1000

		// Instrumented compile: elaboration + analysis + instrumentation.
		t1 := time.Now()
		soc := bld.mk()
		analysis := trace.Analyze(soc.Net)
		mon := monitor.New(analysis, monitor.Config{SimilarityMask: ^uint64(uarch.LineBytes - 1)})
		soc.Pulser.Bind(mon)
		row.CompileInstMs = float64(time.Since(t1).Microseconds()) / 1000
		row.ContentionPoints = len(analysis.Points)
		row.MonitoredPoints = mon.NumPoints()
		row.Statements = mon.Statements()

		// Simulation speed, bare vs instrumented. The instrumented run
		// opens the monitoring window for the whole program, the
		// worst-case sampling load.
		for _, c := range soc.Cores {
			c.SetWindowObserver(alwaysOpen{mon})
		}
		mon.SetWindow(true)
		row.SimBareHz, row.SimInstHz = measureSimHzPair(bare, soc, reps)

		// Fuzzing speed: a short campaign extrapolated to an hour.
		d := &fuzz.DUT{SoC: soc, Analysis: analysis, Mon: mon}
		for _, c := range soc.Cores {
			c.SetWindowObserver(mon)
		}
		iters := 30
		tf := time.Now()
		onDUT(d, fuzz.SonarOptions(iters))
		row.FuzzPerHour = float64(iters) / time.Since(tf).Hours()
		out = append(out, row)
	}
	return out
}

// RenderTable2 formats the overhead table.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: instrumentation overhead\n")
	fmt.Fprintf(&b, "  %-9s %8s %9s %12s %10s %14s %12s\n",
		"DUT", "points", "monitors", "compile(ms)", "stmts", "sim speed(Hz)", "fuzz(/hour)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-9s %8d %9d %6.0f(%+3.0f%%) %10d %7.0f(%+3.0f%%) %12.0f\n",
			r.DUT, r.ContentionPoints, r.MonitoredPoints,
			r.CompileInstMs, 100*r.CompileOverhead(),
			r.Statements,
			r.SimInstHz, -100*r.SimSlowdown(),
			r.FuzzPerHour)
	}
	return b.String()
}
