package uarch

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/isa"
)

// The core-trace golden pins the cycle-level behaviour of the out-of-order
// core: for fixed-seed programs on 1- and 2-core BOOM and NutShell SoCs it
// hashes every commit record, the per-core PerfCounters, every netlist value
// change in order, and every monitoring-window toggle. The SoCs carry all
// five driven structural arrays so each Touch path shows up in the netlist
// stream, and the programs take branches and jumps, read their own
// destination registers, fault on privileged loads into a handler, and
// cross a secret range. testdata/coretrace.golden is frozen: a change that
// moves a hash changes what the core simulates.

// traceArrays gives every core one small array per driven role.
func traceArrays() []ArraySpec {
	return []ArraySpec{
		{Component: "rob", Name: "entries", Entries: 16, Fanin: 2, Width: 40, Role: RoleROB},
		{Component: "frontend", Name: "fetchbuf", Entries: 8, Fanin: 4, Width: 40, Role: RoleFetchBuf},
		{Component: "frontend", Name: "btb", Entries: 32, Fanin: 2, Width: 40, Role: RoleBTB},
		{Component: "exe", Name: "issueq", Entries: 12, Fanin: 2, Width: 32, Role: RoleIssueQ},
		{Component: "exe", Name: "regfile", Entries: 32, Fanin: 2, Width: 64, Role: RoleRegFile},
	}
}

const (
	traceHandler  = 0x3_0000 // exception handler base
	tracePrivBase = 0x8_0000 // privileged page the fault programs load from
)

// randomControlFlow extends randomStraightLine's mix with always-taken
// branches, forward jumps, instructions whose sources include their own
// destination, and the remaining op classes (REM, RDCYCLE, FENCE, word
// and reserved accesses).
func randomControlFlow(rng *rand.Rand, n int) []isa.Instr {
	code := randomStraightLine(rng, n/2)
	code = code[:len(code)-1] // drop the ECALL
	reg := func() uint8 { return uint8(1 + rng.Intn(12)) }
	filler := func(k int) {
		for ; k > 0; k-- {
			code = append(code, isa.R(isa.XOR, reg(), reg(), reg()))
		}
	}
	for len(code) < n {
		switch rng.Intn(9) {
		case 0:
			r := reg()
			skip := 1 + rng.Intn(3)
			code = append(code, isa.Branch(isa.BEQ, r, r, int64(4*(skip+1))))
			filler(skip)
		case 1:
			skip := 1 + rng.Intn(3)
			code = append(code, isa.Instr{Op: isa.JAL, Rd: 16, Imm: int64(4 * (skip + 1))})
			filler(skip)
		case 2:
			r := reg()
			code = append(code, isa.R(isa.ADD, r, r, reg()))
		case 3:
			r := reg()
			code = append(code, isa.R(isa.MUL, r, reg(), r))
		case 4:
			code = append(code, isa.R(isa.REM, reg(), reg(), reg()))
		case 5:
			code = append(code, isa.Instr{Op: isa.RDCYCLE, Rd: reg()})
		case 6:
			code = append(code, isa.Instr{Op: isa.FENCE})
		case 7:
			off := int64(rng.Intn(64)) * 8
			code = append(code, isa.Store(isa.SW, reg(), 28, off), isa.Load(isa.LW, reg(), 28, off))
		case 8:
			code = append(code, isa.Load(isa.LRD, 17, 28, 0), isa.R(isa.SCD, 18, 28, reg()))
		}
	}
	return append(code, isa.Instr{Op: isa.ECALL})
}

// randomFault places a privileged load, with a dependent transient load
// and ALU ops behind it, in the middle of a random program.
func randomFault(rng *rand.Rand, n int) []isa.Instr {
	code := randomStraightLine(rng, n/2)
	code = code[:len(code)-1]
	code = append(code,
		isa.Instr{Op: isa.LUI, Rd: 27, Imm: tracePrivBase >> 12},
		isa.Load(isa.LD, 13, 27, 0),
		isa.I(isa.ANDI, 14, 13, 0x3f8),
		isa.R(isa.ADD, 14, 14, 28),
		isa.Load(isa.LD, 15, 14, 0),
		isa.R(isa.ADD, 13, 13, 15),
	)
	return append(code, randomControlFlow(rng, n/2)...)
}

// traceHandlerProgram is the exception handler the fault programs enter.
func traceHandlerProgram() *isa.Program {
	return isa.NewProgram(traceHandler,
		isa.I(isa.ADDI, 5, 0, 55),
		isa.R(isa.MUL, 6, 5, 5),
		isa.Load(isa.LD, 7, 28, 8),
		isa.Instr{Op: isa.ECALL},
	)
}

// traceRecorder hashes the three event streams of a run.
type traceRecorder struct {
	commits, perf, signals hash.Hash
	buf                    []byte
	// total sums the counters of every run and windows counts window
	// toggles, so the test can check that each path was exercised.
	total   PerfCounters
	windows int
}

func newTraceRecorder(s *SoC) *traceRecorder {
	r := &traceRecorder{commits: sha256.New(), perf: sha256.New(), signals: sha256.New()}
	for _, sig := range s.Net.Signals() {
		if sig.IsConst() {
			continue
		}
		sig.Watch(func(sg *hdl.Signal, old, new uint64, cycle int64) {
			r.put(r.signals, uint64(cycle), uint64(sg.ID()), old, new)
		})
	}
	for _, c := range s.Cores {
		id := uint64(c.ID)
		c.SetWindowObserver(windowFunc(func(open bool) {
			v := uint64(0)
			if open {
				v = 1
			}
			r.windows++
			r.put(r.commits, 1<<63, id, uint64(s.Cycle()), v)
		}))
	}
	return r
}

func (r *traceRecorder) put(h hash.Hash, vs ...uint64) {
	r.buf = r.buf[:0]
	for _, v := range vs {
		r.buf = binary.LittleEndian.AppendUint64(r.buf, v)
	}
	h.Write(r.buf)
}

// finish folds the cores' commit logs and counters into the hashes.
func (r *traceRecorder) finish(s *SoC) {
	for _, c := range s.Cores {
		for _, rec := range c.CommitLog {
			exc := uint64(0)
			if rec.Exception {
				exc = 1
			}
			r.put(r.commits, uint64(c.ID), uint64(int64(rec.Idx)), rec.PC, uint64(rec.Cycle), exc)
		}
		p := c.Perf()
		r.total.Dispatched += p.Dispatched
		r.total.Squashed += p.Squashed
		r.total.BranchFlushes += p.BranchFlushes
		r.total.Exceptions += p.Exceptions
		r.put(r.perf, uint64(c.ID), uint64(p.Cycles), uint64(p.FetchGroups), uint64(p.FetchStallCycles),
			uint64(p.Dispatched), uint64(p.IssuedALU), uint64(p.IssuedMul), uint64(p.IssuedDiv),
			uint64(p.IssuedMem), uint64(p.IssuedOther), uint64(p.Committed), uint64(p.Squashed),
			uint64(p.BranchFlushes), uint64(p.Exceptions))
	}
}

func (r *traceRecorder) line(name string) string {
	return fmt.Sprintf("%s commits=%x perf=%x signals=%x", name,
		r.commits.Sum(nil)[:12], r.perf.Sum(nil)[:12], r.signals.Sum(nil)[:12])
}

type windowFunc func(open bool)

func (f windowFunc) SetWindow(open bool) { f(open) }

// coreTraceLines runs every case and returns one golden line per
// (config, cores, program kind). One SoC per (config, cores) runs all of
// its programs back to back, so Reset paths are part of the trace.
func coreTraceLines(t *testing.T) []string {
	kinds := []struct {
		name string
		gen  func(*rand.Rand, int) []isa.Instr
	}{
		{"straight", randomStraightLine},
		{"flow", randomControlFlow},
		{"fault", randomFault},
	}
	var lines []string
	for _, cfg := range []Config{BoomConfig(), NutshellConfig()} {
		for _, cores := range []int{1, 2} {
			s := NewSoC(cfg, cores, traceArrays(), nil)
			s.Mem.SetPrivRange(tracePrivBase, tracePrivBase+pageBytes)
			rec := newTraceRecorder(s)
			rng := rand.New(rand.NewSource(int64(1000*cores + len(cfg.Name))))
			for _, k := range kinds {
				rec.commits.Reset()
				rec.perf.Reset()
				rec.signals.Reset()
				rec.total, rec.windows = PerfCounters{}, 0
				for trial := 0; trial < 3; trial++ {
					runTraceTrial(s, rng, k.gen)
					rec.finish(s)
				}
				name := fmt.Sprintf("%s/cores=%d/%s", cfg.Name, cores, k.name)
				tot := rec.total
				if tot.Squashed == 0 || tot.BranchFlushes == 0 || rec.windows == 0 ||
					(k.name == "fault") != (tot.Exceptions > 0) {
					t.Errorf("%s does not exercise its paths: %+v, %d window toggles", name, tot, rec.windows)
				}
				lines = append(lines, rec.line(name))
			}
		}
	}
	return lines
}

// runTraceTrial resets the SoC and runs one freshly generated program per
// core, each with a handler and a secret range.
func runTraceTrial(s *SoC, rng *rand.Rand, gen func(*rand.Rand, int) []isa.Instr) {
	loadTraceTrial(s, rng, gen)
	s.Run()
}

// loadTraceTrial resets the SoC and loads runTraceTrial's programs; it
// returns them in core order.
func loadTraceTrial(s *SoC, rng *rand.Rand, gen func(*rand.Rand, int) []isa.Instr) []*isa.Program {
	s.Reset()
	s.Mem.Write(tracePrivBase, uint64(rng.Int63()), 8)
	h := traceHandlerProgram()
	s.Mem.WriteBytes(h.Base, h.Image())
	var progs []*isa.Program
	for i, c := range s.Cores {
		code := gen(rng, 60+rng.Intn(60))
		p := isa.NewProgram(uint64(0x1_0000*(i+1)), code...)
		c.LoadProgram(p)
		c.SetHandler(traceHandler)
		start := rng.Intn(len(code) / 2)
		c.SetSecretRange(start, start+1+rng.Intn(len(code)/2))
		progs = append(progs, p)
	}
	return progs
}

func TestCoreTraceGolden(t *testing.T) {
	path := filepath.Join("testdata", "coretrace.golden")
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open golden: %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			want[strings.Fields(line)[0]] = line
		}
	}
	got := coreTraceLines(t)
	if len(got) != len(want) {
		t.Errorf("golden has %d cases, the run produced %d", len(want), len(got))
	}
	for _, line := range got {
		name := strings.Fields(line)[0]
		if want[name] != line {
			t.Errorf("core trace differs from the golden:\n got  %s\n want %s", line, want[name])
		}
	}
}
