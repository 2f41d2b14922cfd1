package fuzz

import (
	"math/rand"

	"sonar/internal/isa"
)

// SecretPattern selects what the secret-dependent region does with the
// loaded secret — each pattern exercises a different class of shared
// resource.
type SecretPattern uint8

// Secret-dependent operation patterns.
const (
	// PatternLoad issues a load whose cacheline depends on the secret
	// (cache, MSHR, line-buffer, and D-channel contention).
	PatternLoad SecretPattern = iota
	// PatternDiv issues a divide whose latency depends on the secret
	// (divider/MDU occupancy contention).
	PatternDiv
	// PatternMul issues a multiply on the secret (multiplier and shared
	// writeback port contention).
	PatternMul
	// PatternStore issues a store whose cacheline depends on the secret.
	PatternStore
	numPatterns
)

// Testcase is the paper's testcase template (Figure 4): random instruction
// regions surrounding a secret-dependent region, with a dependency chain at
// the head whose length the directed mutation adjusts to shift request
// timing (§6.2.1).
type Testcase struct {
	// HeadChain is the dependency chain (on RegChain) whose length controls
	// the operand-resolution time of the probe instructions.
	HeadChain []isa.Instr
	// Prologue is the random instruction region before the secret load.
	Prologue []isa.Instr
	// Patterns are the secret-dependent operations (after the secret load).
	Patterns []SecretPattern
	// Epilogue is the random instruction region after the secret-dependent
	// region; its timing is observed.
	Epilogue []isa.Instr
	// Probe is the chain-dependent contending operation placed in the
	// epilogue; its class mirrors one of the secret patterns so the two
	// can collide at a contention point.
	Probe SecretPattern
	// ProbeOffset is the data-window offset the load/store probe targets.
	// It is independent of the chain value, so directed mutation shifts
	// the probe's *timing* without disturbing *which* resource it touches
	// (the "critical structure" the paper's mutation must not disrupt).
	ProbeOffset int64
	// ProbeBase is the base register the load/store probe addresses from
	// (one of the preloaded data-window bases), extending reach beyond the
	// 12-bit immediate without disturbing program layout.
	ProbeBase uint8
	// ProbeDelay sets the probe's operand-resolution delay through an
	// iterative divide of latency ~10+ProbeDelay cycles. Unlike chain
	// edits it leaves the program layout (and hence instruction-fetch
	// alignment) untouched, giving the adaptive directed mutation the
	// monotonic, cycle-granular knob §6.2.1 assumes.
	ProbeDelay int
	// Attacker, when non-empty, is the dual-core attacker's loop body
	// (Figure 4b).
	Attacker []isa.Instr
}

// copyFrom overwrites tc with a copy of src, writing src's lists into tc's
// own storage, so tc never shares an array with src.
//
//sonar:alloc-free
func (tc *Testcase) copyFrom(src *Testcase) {
	*tc = Testcase{
		HeadChain:   append(tc.HeadChain[:0], src.HeadChain...),
		Prologue:    append(tc.Prologue[:0], src.Prologue...),
		Patterns:    append(tc.Patterns[:0], src.Patterns...),
		Epilogue:    append(tc.Epilogue[:0], src.Epilogue...),
		Probe:       src.Probe,
		ProbeOffset: src.ProbeOffset,
		ProbeBase:   src.ProbeBase,
		ProbeDelay:  src.ProbeDelay,
		Attacker:    append(tc.Attacker[:0], src.Attacker...),
	}
}

// fillerBases are the preloaded data-window base registers. They are
// spaced 0x1000 (64 lines) apart so that, combined with the ±32-line
// 12-bit immediates, filler and probe accesses cover a 256-line window.
var fillerBases = []uint8{RegDataBase, 20, 21, 22}

// appendSetup appends the fixed register-initialization preamble to code.
func appendSetup(code []isa.Instr) []isa.Instr {
	code = append(code,
		isa.Instr{Op: isa.LUI, Rd: RegDataBase, Imm: int64(DataBase >> 12)},
		isa.Instr{Op: isa.LUI, Rd: 20, Imm: int64((DataBase + 0x1000) >> 12)},
		isa.Instr{Op: isa.LUI, Rd: 21, Imm: int64((DataBase + 0x2000) >> 12)},
		isa.Instr{Op: isa.LUI, Rd: 22, Imm: int64((DataBase + 0x3000) >> 12)},
		isa.Instr{Op: isa.LUI, Rd: RegSecretBase, Imm: int64(SecretAddr >> 12)},
		isa.I(isa.ADDI, RegChain, 0, 1),
	)
	for r := uint8(1); r <= 8; r++ {
		code = append(code, isa.I(isa.ADDI, r, 0, int64(r)*3+1))
	}
	return code
}

// appendSecretOps expands the secret-dependent patterns into instructions,
// appending to code. The secret value sits in RegSecret.
func appendSecretOps(code []isa.Instr, patterns []SecretPattern) []isa.Instr {
	ins := code
	for _, p := range patterns {
		switch p {
		case PatternLoad:
			// Address = DataBase + 0x740 + secret*64: secret 0/1 selects
			// different cachelines.
			ins = append(ins,
				isa.I(isa.ADDI, RegProbe2, 0, 6),
				isa.R(isa.SLL, RegTmp, RegSecret, RegProbe2),
				isa.R(isa.ADD, RegTmp, RegTmp, RegDataBase),
				isa.Load(isa.LD, RegTmp, RegTmp, 0x740),
			)
		case PatternDiv:
			// Dividend = secret << 58: secret 1 gives a ~59-bit dividend
			// and a long occupancy; secret 0 divides 0 and finishes fast.
			ins = append(ins,
				isa.I(isa.ADDI, RegProbe2, 0, 58),
				isa.R(isa.SLL, RegTmp, RegSecret, RegProbe2),
				isa.R(isa.DIV, RegTmp, RegTmp, RegSecretBase),
			)
		case PatternMul:
			ins = append(ins,
				isa.R(isa.MUL, RegTmp, RegSecret, RegSecretBase),
				isa.R(isa.MUL, RegTmp, RegTmp, RegSecret),
			)
		case PatternStore:
			ins = append(ins,
				isa.I(isa.ADDI, RegProbe2, 0, 6),
				isa.R(isa.SLL, RegTmp, RegSecret, RegProbe2),
				isa.R(isa.ADD, RegTmp, RegTmp, RegDataBase),
				isa.Store(isa.SD, RegSecret, RegTmp, 0x7c0),
			)
		}
	}
	return ins
}

// appendProbeTimer appends the probe's delay source: a divide whose dividend
// is 3<<ProbeDelay (latency ~10+delay), folded to zero in RegProbe0. The
// delay also composes with the head chain (the dividend shift amount is
// offset by the chain value's readiness).
func appendProbeTimer(code []isa.Instr, delay int) []isa.Instr {
	if delay > 61 {
		delay = 61
	}
	if delay < 0 {
		delay = 0
	}
	return append(code,
		isa.R(isa.XOR, RegProbe0, RegChain, RegChain), // 0, chain-timed
		isa.I(isa.ADDI, RegProbe0, RegProbe0, 3),
		isa.I(isa.ADDI, RegProbe2, 0, int64(delay)),
		isa.R(isa.SLL, RegProbe0, RegProbe0, RegProbe2),
		isa.R(isa.DIV, RegProbe0, RegProbe0, RegProbe0), // 1, after ~10+delay
		isa.I(isa.ADDI, RegProbe0, RegProbe0, -1),       // 0, delay-timed
	)
}

// appendProbeOps expands the probe: an operation of the probe class whose
// issue time tracks the head chain plus the cycle-granular ProbeDelay, while
// the resource it touches stays fixed.
func appendProbeOps(code []isa.Instr, p SecretPattern, probeOffset int64, probeDelay int, probeBase uint8) []isa.Instr {
	valid := false
	for _, b := range fillerBases {
		if probeBase == b {
			valid = true
		}
	}
	if !valid {
		probeBase = RegDataBase
	}
	ops := appendProbeTimer(code, probeDelay)
	switch p {
	case PatternDiv:
		return append(ops,
			isa.I(isa.ADDI, RegProbe2, 0, 40),
			isa.I(isa.ADDI, RegProbe1, RegProbe0, 3),
			isa.R(isa.SLL, RegProbe1, RegProbe1, RegProbe2),
			isa.R(isa.DIV, RegProbe1, RegProbe1, RegChain),
		)
	case PatternMul:
		return append(ops,
			isa.I(isa.ADDI, RegProbe1, RegProbe0, 3),
			isa.R(isa.MUL, RegProbe1, RegProbe1, RegProbe1),
		)
	case PatternStore:
		return append(ops,
			isa.R(isa.ADD, RegProbe0, RegProbe0, RegDataBase),
			isa.Store(isa.SD, RegChain, RegProbe0, probeOffset),
		)
	default: // PatternLoad
		return append(ops,
			isa.R(isa.ADD, RegProbe0, RegProbe0, RegDataBase),
			isa.Load(isa.LD, RegProbe0, RegProbe0, probeOffset),
		)
	}
}

// Build assembles the full victim program and returns it along with the
// static index range [start, end) of the secret-dependent region.
func (tc *Testcase) Build() (prog *isa.Program, secretStart, secretEnd int) {
	prog = &isa.Program{}
	secretStart, secretEnd = tc.BuildInto(prog)
	return prog, secretStart, secretEnd
}

// BuildInto assembles the full victim program into prog, reusing prog's
// instruction buffer, and returns the static index range [start, end) of the
// secret-dependent region. Repeated builds into the same program allocate
// nothing once the buffer has grown to the largest testcase seen.
//
//sonar:alloc-free
func (tc *Testcase) BuildInto(prog *isa.Program) (secretStart, secretEnd int) {
	code := appendSetup(prog.Code[:0])
	code = append(code, tc.HeadChain...)
	code = append(code, tc.Prologue...)
	secretStart = len(code)
	code = append(code, isa.Load(isa.LD, RegSecret, RegSecretBase, 0)) // load secret
	code = appendSecretOps(code, tc.Patterns)
	secretEnd = len(code)
	code = appendProbeOps(code, tc.Probe, tc.ProbeOffset, tc.ProbeDelay, tc.ProbeBase)
	code = append(code, tc.Epilogue...)
	code = append(code, isa.Instr{Op: isa.ECALL})
	prog.Base = CodeBase
	prog.Code = code
	return secretStart, secretEnd
}

// BuildAttacker assembles the dual-core attacker program: setup, the loop
// body repeated, and a halt.
func (tc *Testcase) BuildAttacker() *isa.Program {
	prog := &isa.Program{}
	tc.BuildAttackerInto(prog)
	return prog
}

// BuildAttackerInto assembles the dual-core attacker program into prog,
// reusing prog's instruction buffer.
//
//sonar:alloc-free
func (tc *Testcase) BuildAttackerInto(prog *isa.Program) {
	code := append(prog.Code[:0],
		isa.Instr{Op: isa.LUI, Rd: RegDataBase, Imm: int64(AttackerDataBase >> 12)},
		isa.I(isa.ADDI, RegChain, 0, 1),
	)
	for i := 0; i < 12; i++ {
		code = append(code, tc.Attacker...)
	}
	code = append(code, isa.Instr{Op: isa.ECALL})
	prog.Base = AttackerCodeBase
	prog.Code = code
}

// fillerRegs are the registers random filler instructions may use.
var fillerRegs = []uint8{1, 2, 3, 4, 5, 6, 7, 8}

// aluOps are the register-register ALU operations of random fillers.
var aluOps = [...]isa.Op{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR}

// randomFiller generates one random filler instruction: ALU ops, multiplies,
// divides, and loads/stores within the data window.
//
//sonar:alloc-free
func randomFiller(rng *rand.Rand) isa.Instr {
	rd := fillerRegs[rng.Intn(len(fillerRegs))]
	rs1 := fillerRegs[rng.Intn(len(fillerRegs))]
	rs2 := fillerRegs[rng.Intn(len(fillerRegs))]
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		return isa.R(aluOps[rng.Intn(len(aluOps))], rd, rs1, rs2)
	case 4, 5:
		return isa.I(isa.ADDI, rd, rs1, int64(rng.Intn(256)))
	case 6:
		return isa.R(isa.MUL, rd, rs1, rs2)
	case 7:
		return isa.R(isa.DIV, rd, rs1, rs2)
	case 8:
		base := fillerBases[rng.Intn(len(fillerBases))]
		return isa.Load(isa.LD, rd, base, int64(rng.Intn(64)-32)*64)
	default:
		base := fillerBases[rng.Intn(len(fillerBases))]
		return isa.Store(isa.SD, rs2, base, int64(rng.Intn(64)-32)*64)
	}
}

// Generate creates a fresh random testcase following the template.
func Generate(rng *rand.Rand, dualCore bool) *Testcase {
	tc := new(Testcase)
	tc.generate(rng, dualCore)
	return tc
}

// generate overwrites tc with a fresh random testcase following the
// template, writing its lists into tc's own storage.
//
//sonar:alloc-free
func (tc *Testcase) generate(rng *rand.Rand, dualCore bool) {
	tc.HeadChain = isa.AppendDepChain(tc.HeadChain[:0], RegChain, 2+rng.Intn(24))
	tc.Probe = SecretPattern(rng.Intn(int(numPatterns)))
	tc.ProbeOffset = int64(rng.Intn(64)-32) * 64
	tc.ProbeBase = fillerBases[rng.Intn(len(fillerBases))]
	tc.ProbeDelay = rng.Intn(50)
	tc.Patterns = tc.Patterns[:0]
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		tc.Patterns = append(tc.Patterns, SecretPattern(rng.Intn(int(numPatterns))))
	}
	tc.Prologue = tc.Prologue[:0]
	for i, n := 0, rng.Intn(8); i < n; i++ {
		tc.Prologue = append(tc.Prologue, randomFiller(rng))
	}
	tc.Epilogue = tc.Epilogue[:0]
	for i, n := 0, 2+rng.Intn(8); i < n; i++ {
		tc.Epilogue = append(tc.Epilogue, randomFiller(rng))
	}
	tc.Attacker = tc.Attacker[:0]
	if dualCore {
		// Attacker loop body: loads sweeping cachelines to keep the shared
		// D-channel busy, mirroring the victim's data window usage.
		for i := 0; i < 4; i++ {
			tc.Attacker = append(tc.Attacker,
				isa.Load(isa.LD, fillerRegs[i%len(fillerRegs)], RegDataBase, int64(i)*64))
		}
		tc.Attacker = append(tc.Attacker, isa.I(isa.ADDI, RegChain, RegChain, 1))
	}
}
