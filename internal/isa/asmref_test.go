package isa

import (
	"strings"
	"testing"
)

// refAssemble is Assemble with the tokenizer it replaced: strings.FieldsFunc
// over runes, which allocates the field list. Both feed assembleFields.
func refAssemble(line string) (Instr, error) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields := strings.FieldsFunc(line, func(r rune) bool {
		return r == ' ' || r == ',' || r == '\t'
	})
	return assembleFields(fields, len(fields))
}

// FuzzAssemble checks Assemble's byte-wise field splitter against the
// rune-wise reference on any line: the same instruction, or the same
// error. The seeds are every op's rendering plus separators doubled,
// missing, trailing and non-ASCII, extra operands and comments.
func FuzzAssemble(f *testing.F) {
	for op := Op(0); op < numOps; op++ {
		f.Add((Instr{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: -4}).String())
	}
	for _, s := range []string{
		"", "#", "  \t,", "addi x1,,x2,\t3", "ADD x1 x2 x3", "beq x1, x2", "beq x1, x2, 8, 9",
		"lw x1, 4(x2) x3", "lui x1, 5, junk", "addi x1, x2, 3", "addi x1, x2, 3 # note",
		"sc.d x1, x2, 0(x3)", "fence,", "add x1, x2, \xff",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, err := Assemble(line)
		want, refErr := refAssemble(line)
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("Assemble(%q) error %v, reference %v", line, err, refErr)
		}
		if got != want {
			t.Fatalf("Assemble(%q) = %+v, reference %+v", line, got, want)
		}
	})
}
