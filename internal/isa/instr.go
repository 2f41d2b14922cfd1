package isa

import "strconv"

// Instr is one decoded instruction.
type Instr struct {
	Op  Op    // operation code
	Rd  uint8 // destination register x0..x31
	Rs1 uint8 // first source register
	Rs2 uint8 // second source register
	Imm int64 // sign-extended immediate (branch/jump offsets in bytes)
}

// NOP returns the canonical no-op (addi x0, x0, 0).
func NOP() Instr { return Instr{Op: ADDI} }

// R builds an R-type instruction.
func R(op Op, rd, rs1, rs2 uint8) Instr { return Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2} }

// I builds an I-type (register-immediate) instruction.
func I(op Op, rd, rs1 uint8, imm int64) Instr { return Instr{Op: op, Rd: rd, Rs1: rs1, Imm: imm} }

// Load builds a load: rd <- mem[rs1+imm].
func Load(op Op, rd, rs1 uint8, imm int64) Instr { return Instr{Op: op, Rd: rd, Rs1: rs1, Imm: imm} }

// Store builds a store: mem[rs1+imm] <- rs2.
func Store(op Op, rs2, rs1 uint8, imm int64) Instr {
	return Instr{Op: op, Rs1: rs1, Rs2: rs2, Imm: imm}
}

// Branch builds a conditional branch with a byte offset.
func Branch(op Op, rs1, rs2 uint8, offset int64) Instr {
	return Instr{Op: op, Rs1: rs1, Rs2: rs2, Imm: offset}
}

// Reads returns the architectural source registers of the instruction,
// excluding x0.
func (i Instr) Reads() []uint8 {
	var rs []uint8
	if i.Op.HasRs1() && i.Rs1 != 0 {
		rs = append(rs, i.Rs1)
	}
	if i.Op.HasRs2() && i.Rs2 != 0 {
		rs = append(rs, i.Rs2)
	}
	return rs
}

// Writes returns the architectural destination register, or 0 if none
// (writes to x0 are discarded and reported as no destination).
func (i Instr) Writes() uint8 {
	if i.Op.HasRd() {
		return i.Rd
	}
	return 0
}

// String renders the instruction in assembler syntax.
func (i Instr) String() string { return string(i.AppendText(nil)) }

// AppendText appends the instruction in assembler syntax (String's text) to
// b and returns the extended slice.
func (i Instr) AppendText(b []byte) []byte {
	switch {
	case i.Op == RDCYCLE:
		return appendReg(append(b, "rdcycle "...), i.Rd)
	case i.Op == FENCE || i.Op == ECALL:
		return i.Op.appendName(b)
	case i.Op == LUI:
		return appendImm(appendReg(append(b, "lui "...), i.Rd), i.Imm)
	case i.Op == JAL:
		return appendImm(appendReg(append(b, "jal "...), i.Rd), i.Imm)
	case i.Op.IsBranch():
		b = appendReg(append(i.Op.appendName(b), ' '), i.Rs1)
		return appendImm(appendReg(append(b, ", "...), i.Rs2), i.Imm)
	case i.Op.IsLoad():
		return appendMem(appendReg(append(i.Op.appendName(b), ' '), i.Rd), i.Imm, i.Rs1)
	case i.Op == SCD:
		b = appendReg(append(i.Op.appendName(b), ' '), i.Rd)
		return appendMem(appendReg(append(b, ", "...), i.Rs2), 0, i.Rs1)
	case i.Op.IsStore():
		return appendMem(appendReg(append(i.Op.appendName(b), ' '), i.Rs2), i.Imm, i.Rs1)
	case i.Op.HasRs2():
		b = appendReg(append(i.Op.appendName(b), ' '), i.Rd)
		b = appendReg(append(b, ", "...), i.Rs1)
		return appendReg(append(b, ", "...), i.Rs2)
	default:
		b = appendReg(append(i.Op.appendName(b), ' '), i.Rd)
		b = appendReg(append(b, ", "...), i.Rs1)
		return appendImm(b, i.Imm)
	}
}

// appendReg appends register r as "x<r>".
func appendReg(b []byte, r uint8) []byte {
	return strconv.AppendUint(append(b, 'x'), uint64(r), 10)
}

// appendImm appends ", <imm>".
func appendImm(b []byte, imm int64) []byte {
	return strconv.AppendInt(append(b, ", "...), imm, 10)
}

// appendMem appends a memory operand ", <imm>(x<base>)".
func appendMem(b []byte, imm int64, base uint8) []byte {
	return append(appendReg(append(appendImm(b, imm), '('), base), ')')
}
