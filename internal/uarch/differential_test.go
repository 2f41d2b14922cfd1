package uarch

import (
	"math/rand"
	"testing"

	"sonar/internal/isa"
)

// randomStraightLine generates an architecturally well-defined program:
// ALU/mul/div ops over x1..x12, loads and stores into a private data
// window, and occasional forward branches (whose targets stay inside the
// program). No backward branches, so it always terminates.
func randomStraightLine(rng *rand.Rand, n int) []isa.Instr {
	code := []isa.Instr{
		{Op: isa.LUI, Rd: 28, Imm: 0x40}, // data base 0x40000
	}
	for r := uint8(1); r <= 12; r++ {
		code = append(code, isa.I(isa.ADDI, r, 0, int64(rng.Intn(2048))))
	}
	reg := func() uint8 { return uint8(1 + rng.Intn(12)) }
	for len(code) < n {
		switch rng.Intn(12) {
		case 0:
			code = append(code, isa.R(isa.ADD, reg(), reg(), reg()))
		case 1:
			code = append(code, isa.R(isa.SUB, reg(), reg(), reg()))
		case 2:
			code = append(code, isa.R(isa.XOR, reg(), reg(), reg()))
		case 3:
			code = append(code, isa.R(isa.AND, reg(), reg(), reg()))
		case 4:
			code = append(code, isa.I(isa.ADDI, reg(), reg(), int64(rng.Intn(4096))-2048))
		case 5:
			code = append(code, isa.R(isa.MUL, reg(), reg(), reg()))
		case 6:
			code = append(code, isa.R(isa.DIV, reg(), reg(), reg()))
		case 7:
			code = append(code, isa.I(isa.SLLI, reg(), reg(), int64(rng.Intn(16))))
		case 8:
			code = append(code, isa.R(isa.SLTU, reg(), reg(), reg()))
		case 9:
			code = append(code, isa.Store(isa.SD, reg(), 28, int64(rng.Intn(64))*8))
		case 10:
			code = append(code, isa.Load(isa.LD, reg(), 28, int64(rng.Intn(64))*8))
		case 11:
			// Forward branch skipping 1-3 instructions; filler ALU ops are
			// appended right after so the target always exists.
			skip := 1 + rng.Intn(3)
			code = append(code, isa.Branch(isa.BNE, reg(), reg(), int64(4*(skip+1))))
			for k := 0; k < skip; k++ {
				code = append(code, isa.R(isa.ADD, reg(), reg(), reg()))
			}
		}
	}
	return append(code, isa.Instr{Op: isa.ECALL})
}

// hazardPrograms are fixed programs aimed at the ordering hazards random
// programs almost never produce: a memory access whose address or data
// waits on a long DIV while a younger access to the same address is ready
// at once, and register write-after-write and write-after-read across a
// slow producer. x28 holds the data base 0x40000; every result lands in
// x1..x12 or the compared data window.
var hazardPrograms = [][]isa.Instr{
	// Store address waits on a DIV; the younger load of the same address
	// must see the stored 7, not the 0 memory held before.
	{
		{Op: isa.LUI, Rd: 28, Imm: 0x40},
		isa.I(isa.ADDI, 1, 0, 7),
		isa.I(isa.ADDI, 2, 0, 64),
		isa.I(isa.ADDI, 3, 0, 8),
		isa.R(isa.DIV, 4, 2, 3),
		isa.R(isa.ADD, 5, 28, 4),
		isa.Store(isa.SD, 1, 5, 0),
		isa.Load(isa.LD, 6, 28, 8),
		{Op: isa.ECALL},
	},
	// Store data waits on a DIV chain; the load of the same address must
	// see the quotient.
	{
		{Op: isa.LUI, Rd: 28, Imm: 0x40},
		isa.I(isa.ADDI, 2, 0, 1000),
		isa.I(isa.ADDI, 3, 0, 3),
		isa.R(isa.DIV, 4, 2, 3),
		isa.R(isa.DIV, 4, 4, 3),
		isa.Store(isa.SD, 4, 28, 16),
		isa.Load(isa.LD, 5, 28, 16),
		isa.I(isa.ADDI, 6, 5, 1),
		{Op: isa.ECALL},
	},
	// A late-address store to one slot must not disturb a load of another:
	// the load reads the value stored there earlier.
	{
		{Op: isa.LUI, Rd: 28, Imm: 0x40},
		isa.I(isa.ADDI, 1, 0, 11),
		isa.Store(isa.SD, 1, 28, 32),
		isa.I(isa.ADDI, 2, 0, 96),
		isa.I(isa.ADDI, 3, 0, 2),
		isa.R(isa.DIV, 4, 2, 3),
		isa.R(isa.ADD, 5, 28, 4),
		isa.I(isa.ADDI, 6, 0, 5),
		isa.Store(isa.SD, 6, 5, 0),
		isa.Load(isa.LD, 7, 28, 32),
		isa.Load(isa.LD, 8, 28, 48),
		{Op: isa.ECALL},
	},
	// A narrow late-address store into a wide slot, then a wide load of it.
	{
		{Op: isa.LUI, Rd: 28, Imm: 0x40},
		isa.I(isa.ADDI, 1, 0, -1),
		isa.Store(isa.SD, 1, 28, 64),
		isa.I(isa.ADDI, 2, 0, 256),
		isa.I(isa.ADDI, 3, 0, 4),
		isa.R(isa.DIV, 4, 2, 3),
		isa.R(isa.ADD, 5, 28, 4),
		isa.I(isa.ADDI, 6, 0, 0x123),
		isa.Store(isa.SW, 6, 5, 0),
		isa.Load(isa.LD, 7, 28, 64),
		isa.Load(isa.LW, 8, 28, 68),
		{Op: isa.ECALL},
	},
	// WAW and WAR around a slow DIV: the younger ADDI's x4 must survive
	// the older DIV's late write, and the MUL must read x5 before the
	// younger overwrite.
	{
		isa.I(isa.ADDI, 2, 0, 900),
		isa.I(isa.ADDI, 3, 0, 7),
		isa.I(isa.ADDI, 5, 0, 6),
		isa.R(isa.DIV, 4, 2, 3),
		isa.R(isa.MUL, 6, 4, 5),
		isa.I(isa.ADDI, 4, 0, 1),
		isa.I(isa.ADDI, 5, 0, 2),
		isa.R(isa.DIV, 7, 2, 5),
		isa.R(isa.REM, 8, 2, 4),
		isa.R(isa.ADD, 9, 4, 5),
		{Op: isa.ECALL},
	},
}

// The cycle-accurate out-of-order cores must be architecturally equivalent
// to the golden interpreter on random programs and on the fixed hazard
// programs: same final registers, same final memory.
func TestDifferentialCoreVsInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, cfg := range []Config{BoomConfig(), NutshellConfig()} {
		soc := NewSoC(cfg, 1, nil, nil)
		for trial := 0; trial < 30+len(hazardPrograms); trial++ {
			var code []isa.Instr
			if trial < 30 {
				code = randomStraightLine(rng, 40+rng.Intn(80))
			} else {
				code = hazardPrograms[trial-30]
			}
			prog := isa.NewProgram(0x1_0000, code...)

			soc.Reset()
			soc.Cores[0].LoadProgram(prog)
			soc.Run()
			if !soc.Cores[0].Halted() {
				t.Fatalf("%s trial %d: core did not halt", cfg.Name, trial)
			}

			ref := NewMemory()
			ref.WriteBytes(prog.Base, prog.Image())
			it := isa.NewInterp(ref, prog.Base)
			if _, err := it.Run(100000); err != nil {
				t.Fatalf("%s trial %d: interp: %v", cfg.Name, trial, err)
			}
			if !it.Halted {
				t.Fatalf("%s trial %d: interp did not halt", cfg.Name, trial)
			}

			for r := uint8(1); r <= 12; r++ {
				if got, want := soc.Cores[0].Reg(r), it.Regs[r]; got != want {
					t.Fatalf("%s trial %d: x%d = %#x, interp says %#x\n%s",
						cfg.Name, trial, r, got, want, prog.Listing())
				}
			}
			for off := uint64(0); off < 64*8; off += 8 {
				addr := uint64(0x40000) + off
				if got, want := soc.Mem.Read(addr, 8), ref.Read(addr, 8); got != want {
					t.Fatalf("%s trial %d: mem[%#x] = %#x, interp says %#x",
						cfg.Name, trial, addr, got, want)
				}
			}
		}
	}
}

// The interpreter itself retires rdcycle, jumps, and halts correctly.
func TestInterpBasics(t *testing.T) {
	mem := NewMemory()
	prog := isa.NewProgram(0x1000,
		isa.I(isa.ADDI, 1, 0, 7),
		isa.Instr{Op: isa.JAL, Rd: 2, Imm: 8}, // skip one
		isa.I(isa.ADDI, 1, 0, 99),             // skipped
		isa.Instr{Op: isa.RDCYCLE, Rd: 3},
		isa.Instr{Op: isa.ECALL},
	)
	mem.WriteBytes(prog.Base, prog.Image())
	it := isa.NewInterp(mem, prog.Base)
	n, err := it.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if !it.Halted || n != 4 {
		t.Fatalf("halted=%v retired=%d", it.Halted, n)
	}
	if it.Regs[1] != 7 {
		t.Errorf("x1 = %d, want 7 (skipped path committed)", it.Regs[1])
	}
	if it.Regs[2] != 0x1008 {
		t.Errorf("link = %#x", it.Regs[2])
	}
	if it.Regs[3] == 0 {
		t.Error("rdcycle returned 0 after retiring instructions")
	}
}

func TestInterpRejectsGarbage(t *testing.T) {
	mem := NewMemory()
	mem.Write(0x1000, 0x0000007f, 4) // unused opcode
	it := isa.NewInterp(mem, 0x1000)
	if err := it.Step(); err == nil {
		t.Error("undecodable word executed")
	}
}
