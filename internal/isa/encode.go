package isa

import "fmt"

// RV64 opcode constants.
const (
	opcOpImm  = 0x13
	opcOp     = 0x33
	opcLoad   = 0x03
	opcStore  = 0x23
	opcBranch = 0x63
	opcJAL    = 0x6F
	opcLUI    = 0x37
	opcAMO    = 0x2F
	opcSystem = 0x73
	opcFence  = 0x0F
)

const csrCycle = 0xC00

type encSpec struct {
	opcode uint32
	funct3 uint32
	funct7 uint32 // or funct5<<2 for AMO
}

// encTable is indexed by Op; ops without a table encoding have opcode 0.
var encTable = [numOps]encSpec{
	ADD:  {opcOp, 0, 0x00},
	SUB:  {opcOp, 0, 0x20},
	SLL:  {opcOp, 1, 0x00},
	SLT:  {opcOp, 2, 0x00},
	SLTU: {opcOp, 3, 0x00},
	XOR:  {opcOp, 4, 0x00},
	SRL:  {opcOp, 5, 0x00},
	SRA:  {opcOp, 5, 0x20},
	OR:   {opcOp, 6, 0x00},
	AND:  {opcOp, 7, 0x00},
	MUL:  {opcOp, 0, 0x01},
	DIV:  {opcOp, 4, 0x01},
	REM:  {opcOp, 6, 0x01},
	ADDI: {opcOpImm, 0, 0},
	SLTI: {opcOpImm, 2, 0},
	XORI: {opcOpImm, 4, 0},
	ORI:  {opcOpImm, 6, 0},
	ANDI: {opcOpImm, 7, 0},
	LW:   {opcLoad, 2, 0},
	LD:   {opcLoad, 3, 0},
	SW:   {opcStore, 2, 0},
	SD:   {opcStore, 3, 0},
	LRD:  {opcAMO, 3, 0x02 << 2}, // funct5=00010
	SCD:  {opcAMO, 3, 0x03 << 2}, // funct5=00011
	BEQ:  {opcBranch, 0, 0},
	BNE:  {opcBranch, 1, 0},
}

// Decode lookup tables derived from encTable: opcOp keys on
// funct7<<3|funct3, opcOpImm on funct3 alone (shift-immediates are special-
// cased in Decode). Entries hold Op+1 so zero means "no such instruction".
// Flat arrays keep the per-fetch decode O(1); iterating encTable per decoded
// word dominated simulation profiles.
var (
	decOp    [1024]uint16
	decOpImm [8]uint16
)

func init() {
	for op, e := range encTable {
		switch e.opcode {
		case opcOp:
			decOp[e.funct7<<3|e.funct3] = uint16(op) + 1
		case opcOpImm:
			decOpImm[e.funct3] = uint16(op) + 1
		}
	}
}

// Encode produces the 32-bit RV64 machine word for the instruction.
func (i Instr) Encode() uint32 {
	rd := uint32(i.Rd) & 31
	rs1 := uint32(i.Rs1) & 31
	rs2 := uint32(i.Rs2) & 31
	imm := uint32(i.Imm)
	switch i.Op {
	case ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND, MUL, DIV, REM:
		e := encTable[i.Op]
		return e.funct7<<25 | rs2<<20 | rs1<<15 | e.funct3<<12 | rd<<7 | e.opcode
	case SLLI:
		return (imm&0x3f)<<20 | rs1<<15 | 1<<12 | rd<<7 | opcOpImm
	case SRLI:
		return (imm&0x3f)<<20 | rs1<<15 | 5<<12 | rd<<7 | opcOpImm
	case SRAI:
		return 0x10<<26 | (imm&0x3f)<<20 | rs1<<15 | 5<<12 | rd<<7 | opcOpImm
	case ADDI, SLTI, XORI, ORI, ANDI:
		e := encTable[i.Op]
		return (imm&0xfff)<<20 | rs1<<15 | e.funct3<<12 | rd<<7 | e.opcode
	case LW, LD:
		e := encTable[i.Op]
		return (imm&0xfff)<<20 | rs1<<15 | e.funct3<<12 | rd<<7 | e.opcode
	case SW, SD:
		e := encTable[i.Op]
		return (imm>>5&0x7f)<<25 | rs2<<20 | rs1<<15 | e.funct3<<12 | (imm&0x1f)<<7 | e.opcode
	case LRD:
		return (0x02 << 27) | rs1<<15 | 3<<12 | rd<<7 | opcAMO
	case SCD:
		return (0x03 << 27) | rs2<<20 | rs1<<15 | 3<<12 | rd<<7 | opcAMO
	case BEQ, BNE:
		e := encTable[i.Op]
		return (imm>>12&1)<<31 | (imm>>5&0x3f)<<25 | rs2<<20 | rs1<<15 |
			e.funct3<<12 | (imm>>1&0xf)<<8 | (imm>>11&1)<<7 | e.opcode
	case JAL:
		return (imm>>20&1)<<31 | (imm>>1&0x3ff)<<21 | (imm>>11&1)<<20 |
			(imm>>12&0xff)<<12 | rd<<7 | opcJAL
	case LUI:
		return (imm&0xfffff)<<12 | rd<<7 | opcLUI
	case RDCYCLE:
		return uint32(csrCycle)<<20 | 0<<15 | 2<<12 | rd<<7 | opcSystem // csrrs rd, cycle, x0
	case FENCE:
		return opcFence
	case ECALL:
		return opcSystem
	}
	panic(fmt.Sprintf("isa: Encode of unknown op %v", i.Op))
}

// Decode reconstructs an instruction from its machine word. It returns an
// error for words outside the supported subset.
func Decode(w uint32) (Instr, error) {
	if ins, ok := DecodeWord(w); ok {
		return ins, nil
	}
	return Instr{}, fmt.Errorf("isa: cannot decode %#08x", w)
}

// DecodeWord is Decode without the error construction: ok is false for words
// outside the supported subset. The per-cycle fetch path uses it so that
// running into undecodable memory (the normal way programs halt) does not
// allocate an error object per fetched word.
//
//sonar:alloc-free
func DecodeWord(w uint32) (Instr, bool) {
	opcode := w & 0x7f
	rd := uint8(w >> 7 & 31)
	funct3 := w >> 12 & 7
	rs1 := uint8(w >> 15 & 31)
	rs2 := uint8(w >> 20 & 31)
	funct7 := w >> 25 & 0x7f
	switch opcode {
	case opcOp:
		if v := decOp[funct7<<3|funct3]; v != 0 {
			return R(Op(v-1), rd, rs1, rs2), true
		}
	case opcOpImm:
		imm := signExtend(uint64(w>>20&0xfff), 12)
		switch funct3 {
		case 1:
			if w>>26 == 0 {
				return I(SLLI, rd, rs1, int64(w>>20&0x3f)), true
			}
			return Instr{}, false
		case 5:
			switch w >> 26 {
			case 0:
				return I(SRLI, rd, rs1, int64(w>>20&0x3f)), true
			case 0x10:
				return I(SRAI, rd, rs1, int64(w>>20&0x3f)), true
			}
			return Instr{}, false
		}
		if v := decOpImm[funct3]; v != 0 {
			return I(Op(v-1), rd, rs1, imm), true
		}
	case opcLoad:
		imm := signExtend(uint64(w>>20&0xfff), 12)
		switch funct3 {
		case 2:
			return Load(LW, rd, rs1, imm), true
		case 3:
			return Load(LD, rd, rs1, imm), true
		}
	case opcStore:
		imm := signExtend(uint64(w>>25&0x7f)<<5|uint64(w>>7&0x1f), 12)
		switch funct3 {
		case 2:
			return Store(SW, rs2, rs1, imm), true
		case 3:
			return Store(SD, rs2, rs1, imm), true
		}
	case opcAMO:
		if funct3 == 3 {
			switch w >> 27 & 0x1f {
			case 0x02:
				return Instr{Op: LRD, Rd: rd, Rs1: rs1}, true
			case 0x03:
				return Instr{Op: SCD, Rd: rd, Rs1: rs1, Rs2: rs2}, true
			}
		}
	case opcBranch:
		imm := signExtend(
			uint64(w>>31&1)<<12|uint64(w>>7&1)<<11|
				uint64(w>>25&0x3f)<<5|uint64(w>>8&0xf)<<1, 13)
		switch funct3 {
		case 0:
			return Branch(BEQ, rs1, rs2, imm), true
		case 1:
			return Branch(BNE, rs1, rs2, imm), true
		}
	case opcJAL:
		imm := signExtend(
			uint64(w>>31&1)<<20|uint64(w>>12&0xff)<<12|
				uint64(w>>20&1)<<11|uint64(w>>21&0x3ff)<<1, 21)
		return Instr{Op: JAL, Rd: rd, Imm: imm}, true
	case opcLUI:
		return Instr{Op: LUI, Rd: rd, Imm: int64(w >> 12 & 0xfffff)}, true
	case opcSystem:
		if w == opcSystem {
			return Instr{Op: ECALL}, true
		}
		if funct3 == 2 && w>>20 == csrCycle && rs1 == 0 {
			return Instr{Op: RDCYCLE, Rd: rd}, true
		}
	case opcFence:
		return Instr{Op: FENCE}, true
	}
	return Instr{}, false
}

func signExtend(v uint64, bits int) int64 {
	shift := 64 - uint(bits)
	return int64(v<<shift) >> shift
}
