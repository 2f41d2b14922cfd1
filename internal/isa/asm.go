package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses one line of assembler syntax (the format produced by
// Instr.String) into an instruction.
func Assemble(line string) (Instr, error) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	var fields [maxFields]string
	n := splitFields(line, &fields)
	return assembleFields(fields[:min(n, maxFields)], n)
}

// assembleFields assembles the instruction a line of n fields spells, of
// which fields holds the first (at least min(n, maxFields)).
func assembleFields(fields []string, n int) (Instr, error) {
	if n == 0 {
		return Instr{}, fmt.Errorf("isa: empty line")
	}
	mn := strings.ToLower(fields[0])
	op, ok := opByName(mn)
	if !ok {
		return Instr{}, fmt.Errorf("isa: unknown mnemonic %q", mn)
	}
	// nargs counts every operand; no form reads past the third.
	nargs := n - 1
	args := fields[1:]
	argN := func(i int) (string, error) {
		if i >= nargs {
			return "", fmt.Errorf("isa: %s: missing operand %d", mn, i+1)
		}
		return args[i], nil
	}
	switch {
	case op == FENCE || op == ECALL:
		return Instr{Op: op}, nil
	case op == RDCYCLE:
		a, err := argN(0)
		if err != nil {
			return Instr{}, err
		}
		rd, err := parseReg(a)
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: RDCYCLE, Rd: rd}, nil
	case op == LUI || op == JAL:
		a0, err := argN(0)
		if err != nil {
			return Instr{}, err
		}
		a1, err := argN(1)
		if err != nil {
			return Instr{}, err
		}
		rd, err := parseReg(a0)
		if err != nil {
			return Instr{}, err
		}
		imm, err := parseImm(a1)
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: op, Rd: rd, Imm: imm}, nil
	case op.IsBranch():
		if nargs != 3 {
			return Instr{}, fmt.Errorf("isa: %s expects 3 operands", mn)
		}
		rs1, err := parseReg(args[0])
		if err != nil {
			return Instr{}, err
		}
		rs2, err := parseReg(args[1])
		if err != nil {
			return Instr{}, err
		}
		imm, err := parseImm(args[2])
		if err != nil {
			return Instr{}, err
		}
		return Branch(op, rs1, rs2, imm), nil
	case op.IsLoad():
		a0, err := argN(0)
		if err != nil {
			return Instr{}, err
		}
		a1, err := argN(1)
		if err != nil {
			return Instr{}, err
		}
		rd, err := parseReg(a0)
		if err != nil {
			return Instr{}, err
		}
		imm, rs1, err := parseMemOperand(a1)
		if err != nil {
			return Instr{}, err
		}
		return Load(op, rd, rs1, imm), nil
	case op == SCD:
		a0, err := argN(0)
		if err != nil {
			return Instr{}, err
		}
		a1, err := argN(1)
		if err != nil {
			return Instr{}, err
		}
		a2, err := argN(2)
		if err != nil {
			return Instr{}, err
		}
		rd, err := parseReg(a0)
		if err != nil {
			return Instr{}, err
		}
		rs2, err := parseReg(a1)
		if err != nil {
			return Instr{}, err
		}
		_, rs1, err := parseMemOperand(a2)
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: SCD, Rd: rd, Rs1: rs1, Rs2: rs2}, nil
	case op.IsStore():
		a0, err := argN(0)
		if err != nil {
			return Instr{}, err
		}
		a1, err := argN(1)
		if err != nil {
			return Instr{}, err
		}
		rs2, err := parseReg(a0)
		if err != nil {
			return Instr{}, err
		}
		imm, rs1, err := parseMemOperand(a1)
		if err != nil {
			return Instr{}, err
		}
		return Store(op, rs2, rs1, imm), nil
	case op.HasRs2():
		if nargs != 3 {
			return Instr{}, fmt.Errorf("isa: %s expects 3 operands", mn)
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return Instr{}, err
		}
		rs1, err := parseReg(args[1])
		if err != nil {
			return Instr{}, err
		}
		rs2, err := parseReg(args[2])
		if err != nil {
			return Instr{}, err
		}
		return R(op, rd, rs1, rs2), nil
	}
	// Register-register or register-immediate three-operand forms.
	if nargs != 3 {
		return Instr{}, fmt.Errorf("isa: %s expects 3 operands", mn)
	}
	rd, err := parseReg(args[0])
	if err != nil {
		return Instr{}, err
	}
	rs1, err := parseReg(args[1])
	if err != nil {
		return Instr{}, err
	}
	imm, err := parseImm(args[2])
	if err != nil {
		return Instr{}, err
	}
	return I(op, rd, rs1, imm), nil
}

// maxFields is the most fields any instruction form reads: the mnemonic
// and three operands.
const maxFields = 4

// splitFields splits line into fields separated by runs of spaces, commas
// and tabs, stores the first len(dst) of them in dst, and returns how many
// there are in all. The separators are ASCII, so splitting bytes splits
// exactly where splitting runes would, on any input.
func splitFields(line string, dst *[maxFields]string) int {
	n := 0
	for i := 0; i < len(line); {
		if isFieldSep(line[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(line) && !isFieldSep(line[j]) {
			j++
		}
		if n < len(dst) {
			dst[n] = line[i:j]
		}
		n++
		i = j
	}
	return n
}

func isFieldSep(c byte) bool { return c == ' ' || c == ',' || c == '\t' }

func opByName(name string) (Op, bool) {
	for op := Op(0); op < numOps; op++ {
		if opNames[op] == name {
			return op, true
		}
	}
	return 0, false
}

func parseReg(s string) (uint8, error) {
	if len(s) < 2 || s[0] != 'x' {
		return 0, fmt.Errorf("isa: bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 31 {
		return 0, fmt.Errorf("isa: bad register %q", s)
	}
	return uint8(n), nil
}

func parseImm(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("isa: bad immediate %q", s)
	}
	return v, nil
}

// parseMemOperand parses "imm(xN)".
func parseMemOperand(s string) (int64, uint8, error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("isa: bad memory operand %q", s)
	}
	var imm int64
	var err error
	if open > 0 {
		imm, err = parseImm(s[:open])
		if err != nil {
			return 0, 0, err
		}
	}
	reg, err := parseReg(s[open+1 : len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	return imm, reg, nil
}

// AssembleProgram parses a newline-separated listing. Blank lines and
// comment-only lines are skipped.
func AssembleProgram(src string) ([]Instr, error) {
	var out []Instr
	for ln, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if i := strings.IndexByte(trimmed, '#'); i >= 0 {
			trimmed = strings.TrimSpace(trimmed[:i])
		}
		if trimmed == "" {
			continue
		}
		ins, err := Assemble(trimmed)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		out = append(out, ins)
	}
	return out, nil
}
