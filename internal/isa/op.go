// Package isa implements the RISC-V subset Sonar's testcases are written
// in: RV64I integer arithmetic, loads/stores, branches, the M extension
// (the paper's DUTs are RV64GC and RV64IMAC), LR/SC atomics (side channel
// S10 needs store-conditional), and the cycle CSR read used by timing
// measurements. Instructions carry full RV64 binary encodings so programs
// can round-trip through memory images.
package isa

import "strconv"

// Op identifies an instruction operation.
type Op uint8

// Operations in the supported subset.
const (
	ADD Op = iota
	SUB
	AND
	OR
	XOR
	SLL
	SRL
	SRA
	SLT
	SLTU
	SLLI
	SRLI
	SRAI
	ADDI
	ANDI
	ORI
	XORI
	SLTI
	LUI
	MUL
	DIV
	REM
	LD
	LW
	SD
	SW
	LRD // lr.d
	SCD // sc.d
	BEQ
	BNE
	JAL
	RDCYCLE
	FENCE
	ECALL
	numOps
)

var opNames = [numOps]string{
	ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SLL: "sll", SRL: "srl", SRA: "sra", SLT: "slt", SLTU: "sltu",
	SLLI: "slli", SRLI: "srli", SRAI: "srai",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori", SLTI: "slti",
	LUI: "lui",
	MUL: "mul", DIV: "div", REM: "rem",
	LD: "ld", LW: "lw", SD: "sd", SW: "sw",
	LRD: "lr.d", SCD: "sc.d",
	BEQ: "beq", BNE: "bne", JAL: "jal",
	RDCYCLE: "rdcycle", FENCE: "fence", ECALL: "ecall",
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return string(o.appendName(nil))
}

// appendName appends the op's mnemonic (String's text) to b.
func (o Op) appendName(b []byte) []byte {
	if int(o) < len(opNames) {
		return append(b, opNames[o]...)
	}
	return append(strconv.AppendUint(append(b, "Op("...), uint64(o), 10), ')')
}

// IsALU reports whether the op executes on an integer ALU.
func (o Op) IsALU() bool {
	switch o {
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU,
		SLLI, SRLI, SRAI, ADDI, ANDI, ORI, XORI, SLTI, LUI:
		return true
	}
	return false
}

// IsMul reports whether the op uses the multiplier.
func (o Op) IsMul() bool { return o == MUL }

// IsDiv reports whether the op uses the divider.
func (o Op) IsDiv() bool { return o == DIV || o == REM }

// Per-op class flags: the operand and memory predicates the core model
// asks several times per waiting instruction each cycle, one table load
// apiece.
const (
	fLoad uint8 = 1 << iota
	fStore
	fRd
	fRs1
	fRs2
)

// rrr and rri are the register-register and register-immediate shapes.
const (
	rrr = fRd | fRs1 | fRs2
	rri = fRd | fRs1
)

var opFlags = [numOps]uint8{
	ADD: rrr, SUB: rrr, AND: rrr, OR: rrr, XOR: rrr,
	SLL: rrr, SRL: rrr, SRA: rrr, SLT: rrr, SLTU: rrr,
	SLLI: rri, SRLI: rri, SRAI: rri,
	ADDI: rri, ANDI: rri, ORI: rri, XORI: rri, SLTI: rri,
	LUI: fRd,
	MUL: rrr, DIV: rrr, REM: rrr,
	LD: fLoad | rri, LW: fLoad | rri, SD: fStore | fRs1 | fRs2, SW: fStore | fRs1 | fRs2,
	LRD: fLoad | rri, SCD: fStore | rrr,
	BEQ: fRs1 | fRs2, BNE: fRs1 | fRs2, JAL: fRd,
	RDCYCLE: fRd, FENCE: 0, ECALL: 0,
}

// is reports whether the op is in the subset and carries any of the flags f.
func (o Op) is(f uint8) bool { return o < numOps && opFlags[o]&f != 0 }

// IsLoad reports whether the op reads data memory.
func (o Op) IsLoad() bool { return o.is(fLoad) }

// IsStore reports whether the op writes data memory.
func (o Op) IsStore() bool { return o.is(fStore) }

// IsMem reports whether the op accesses data memory.
func (o Op) IsMem() bool { return o.is(fLoad | fStore) }

// IsBranch reports whether the op is a conditional branch.
func (o Op) IsBranch() bool { return o == BEQ || o == BNE }

// IsJump reports whether the op is an unconditional jump.
func (o Op) IsJump() bool { return o == JAL }

// HasRd reports whether the op writes a destination register.
func (o Op) HasRd() bool { return o.is(fRd) }

// HasRs1 reports whether the op reads rs1.
func (o Op) HasRs1() bool { return o.is(fRs1) }

// HasRs2 reports whether the op reads rs2.
func (o Op) HasRs2() bool { return o.is(fRs2) }

// MemBytes returns the access width in bytes for memory ops, 0 otherwise.
func (o Op) MemBytes() int {
	switch o {
	case LD, SD, LRD, SCD:
		return 8
	case LW, SW:
		return 4
	}
	return 0
}
