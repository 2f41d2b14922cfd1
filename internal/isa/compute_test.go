package isa

import "testing"

// Operand values named for the sign and overflow edges the table walks.
const (
	minInt64 = 0x8000_0000_0000_0000
	maxInt64 = 0x7fff_ffff_ffff_ffff
	minusOne = 0xffff_ffff_ffff_ffff
	minusTwo = 0xffff_ffff_ffff_fffe
)

// TestComputeMatchesSpec checks Compute against results written out from
// the RISC-V unprivileged spec (RV64I and the M extension), one operand
// class per row. The expected values are literals: the core models and the
// interpreter both execute through Compute, so only an independent table
// can catch a wrong ALU, MUL or DIV result.
func TestComputeMatchesSpec(t *testing.T) {
	cases := []struct {
		name     string
		ins      Instr
		rs1, rs2 uint64
		want     uint64
	}{
		// Division by zero: the quotient is all ones, the remainder is the
		// dividend (spec table "Semantics for division by zero").
		{"div by zero", R(DIV, 1, 2, 3), 7, 0, minusOne},
		{"div negative by zero", R(DIV, 1, 2, 3), minusTwo, 0, minusOne},
		{"div zero by zero", R(DIV, 1, 2, 3), 0, 0, minusOne},
		{"rem by zero", R(REM, 1, 2, 3), 7, 0, 7},
		{"rem negative by zero", R(REM, 1, 2, 3), minusTwo, 0, minusTwo},
		// Signed overflow: MinInt64 / -1 is MinInt64 with remainder 0.
		{"div overflow", R(DIV, 1, 2, 3), minInt64, minusOne, minInt64},
		{"rem overflow", R(REM, 1, 2, 3), minInt64, minusOne, 0},
		// Division truncates toward zero; the remainder takes the
		// dividend's sign.
		{"div -7/2", R(DIV, 1, 2, 3), 0xffff_ffff_ffff_fff9, 2, minusTwo - 1},
		{"rem -7%2", R(REM, 1, 2, 3), 0xffff_ffff_ffff_fff9, 2, minusOne},
		{"div 7/-2", R(DIV, 1, 2, 3), 7, minusTwo, 0xffff_ffff_ffff_fffd},
		{"rem 7%-2", R(REM, 1, 2, 3), 7, minusTwo, 1},
		{"div min/1", R(DIV, 1, 2, 3), minInt64, 1, minInt64},
		{"div max/-1", R(DIV, 1, 2, 3), maxInt64, minusOne, minInt64 + 1},
		// MUL keeps the low 64 bits.
		{"mul wraps", R(MUL, 1, 2, 3), maxInt64, 2, minusTwo},
		{"mul min*-1", R(MUL, 1, 2, 3), minInt64, minusOne, minInt64},
		{"add wraps", R(ADD, 1, 2, 3), maxInt64, 1, minInt64},
		{"sub wraps", R(SUB, 1, 2, 3), minInt64, 1, maxInt64},
		// Arithmetic right shifts replicate the sign bit.
		{"sra negative by 1", R(SRA, 1, 2, 3), minInt64, 1, 0xc000_0000_0000_0000},
		{"sra negative by 63", R(SRA, 1, 2, 3), minInt64, 63, minusOne},
		{"sra positive by 63", R(SRA, 1, 2, 3), maxInt64, 63, 0},
		{"srai negative by 63", I(SRAI, 1, 2, 63), minInt64, 0, minusOne},
		{"srai negative by 4", I(SRAI, 1, 2, 4), minusTwo - 14, 0, minusOne},
		{"srai positive by 62", I(SRAI, 1, 2, 62), maxInt64, 0, 1},
		// Register shifts read only the low six bits of rs2: 64 shifts by 0.
		{"sll by 63", R(SLL, 1, 2, 3), 1, 63, minInt64},
		{"sll by 64", R(SLL, 1, 2, 3), 1, 64, 1},
		{"srl by 63", R(SRL, 1, 2, 3), minInt64, 63, 1},
		{"srl by 64", R(SRL, 1, 2, 3), minInt64, 64, minInt64},
		{"sra by 64", R(SRA, 1, 2, 3), minInt64, 64, minInt64},
		{"sra by 65", R(SRA, 1, 2, 3), minInt64, 65, 0xc000_0000_0000_0000},
		{"slli by 63", I(SLLI, 1, 2, 63), 3, 0, minInt64},
		{"srli by 63", I(SRLI, 1, 2, 63), minusOne, 0, 1},
		// Signed against unsigned comparison across the sign bit.
		{"slt -1 < 0", R(SLT, 1, 2, 3), minusOne, 0, 1},
		{"slt 0 < -1", R(SLT, 1, 2, 3), 0, minusOne, 0},
		{"slt min < max", R(SLT, 1, 2, 3), minInt64, maxInt64, 1},
		{"slt equal", R(SLT, 1, 2, 3), minusOne, minusOne, 0},
		{"sltu -1 < 0", R(SLTU, 1, 2, 3), minusOne, 0, 0},
		{"sltu 0 < -1", R(SLTU, 1, 2, 3), 0, minusOne, 1},
		{"sltu min < max", R(SLTU, 1, 2, 3), minInt64, maxInt64, 0},
		{"sltu max < min", R(SLTU, 1, 2, 3), maxInt64, minInt64, 1},
		{"slti -1 < 0", I(SLTI, 1, 2, 0), minusOne, 0, 1},
		{"slti 0 < -1", I(SLTI, 1, 2, -1), 0, 0, 0},
		{"slti -2 < -1", I(SLTI, 1, 2, -1), minusTwo, 0, 1},
		{"slti min < -2048", I(SLTI, 1, 2, -2048), minInt64, 0, 1},
		{"slti max < 2047", I(SLTI, 1, 2, 2047), maxInt64, 0, 0},
		{"slti 2046 < 2047", I(SLTI, 1, 2, 2047), 2046, 0, 1},
		// I-type immediates are sign-extended before the operation.
		{"addi -1", I(ADDI, 1, 2, -1), 0, 0, minusOne},
		{"andi -1", I(ANDI, 1, 2, -1), minInt64 | 5, 0, minInt64 | 5},
		{"xori -1", I(XORI, 1, 2, -1), 0, 0, minusOne},
	}
	for _, c := range cases {
		if got := Compute(c.ins, c.rs1, c.rs2); got != c.want {
			t.Errorf("%s: %s with rs1=%#x rs2=%#x = %#x, want %#x", c.name, c.ins, c.rs1, c.rs2, got, c.want)
		}
	}
}
