package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeGolden(t *testing.T) {
	cases := []struct {
		ins  Instr
		want uint32
	}{
		{R(ADD, 3, 1, 2), 0x002081b3},
		{R(SUB, 3, 1, 2), 0x402081b3},
		{R(MUL, 5, 6, 7), 0x027302b3},
		{R(DIV, 5, 6, 7), 0x027342b3},
		{I(ADDI, 1, 0, 42), 0x02a00093},
		{I(ADDI, 1, 1, -1), 0xfff08093},
		{Load(LD, 2, 1, 8), 0x0080b103},
		{Store(SD, 2, 1, 8), 0x0020b423},
		{Branch(BEQ, 1, 2, 8), 0x00208463},
		{Instr{Op: JAL, Rd: 1, Imm: 16}, 0x010000ef},
		{Instr{Op: ECALL}, 0x00000073},
		{Instr{Op: RDCYCLE, Rd: 10}, 0xc0002573},
	}
	for _, c := range cases {
		got := c.ins.Encode()
		if got != c.want {
			t.Errorf("Encode(%s) = %#08x, want %#08x", c.ins, got, c.want)
		}
		back, err := Decode(got)
		if err != nil {
			t.Errorf("Decode(%#08x): %v", got, err)
			continue
		}
		if back != c.ins {
			t.Errorf("Decode(Encode(%s)) = %s", c.ins, back)
		}
	}
}

// randomInstr generates a valid instruction in the subset with in-range
// operands.
func randomInstr(r *rand.Rand) Instr {
	op := Op(r.Intn(int(numOps)))
	ins := Instr{Op: op}
	if op.HasRd() {
		ins.Rd = uint8(r.Intn(32))
	}
	if op.HasRs1() {
		ins.Rs1 = uint8(r.Intn(32))
	}
	if op.HasRs2() {
		ins.Rs2 = uint8(r.Intn(32))
	}
	switch {
	case op == LUI:
		ins.Imm = int64(r.Intn(1 << 20))
	case op == JAL:
		ins.Imm = int64(r.Intn(1<<19))*2 - (1 << 19) // even, ±2^19
	case op.IsBranch():
		ins.Imm = int64(r.Intn(1<<11))*2 - (1 << 11) // even, ±2^11
	case op == SLLI || op == SRLI || op == SRAI:
		ins.Imm = int64(r.Intn(64)) // 6-bit shift amount
	case op == LRD:
		ins.Rs2 = 0
		ins.Imm = 0
	case op == SCD:
		ins.Imm = 0
	case op.IsMem() || op.IsALU():
		if op != LUI {
			ins.Imm = int64(r.Intn(1<<12)) - (1 << 11) // ±2^11
		}
	}
	if op == RDCYCLE || op == FENCE || op == ECALL {
		ins.Imm = 0
		ins.Rs1, ins.Rs2 = 0, 0
		if op != RDCYCLE {
			ins.Rd = 0
		}
	}
	if op.IsALU() && op.HasRs2() {
		ins.Imm = 0 // R-type carries no immediate
	}
	return ins
}

// Property: Decode(Encode(i)) == i over the whole subset.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		ins := randomInstr(r)
		back, err := Decode(ins.Encode())
		if err != nil {
			t.Fatalf("Decode(Encode(%s)) error: %v", ins, err)
		}
		if back != ins {
			t.Fatalf("round trip: %s -> %#08x -> %s", ins, ins.Encode(), back)
		}
	}
}

// Property: Assemble(String(i)) == i.
func TestQuickAsmRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		ins := randomInstr(r)
		back, err := Assemble(ins.String())
		if err != nil {
			t.Fatalf("Assemble(%q): %v", ins.String(), err)
		}
		if back != ins {
			t.Fatalf("asm round trip: %s -> %s", ins, back)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// 0x7f is an unused opcode; 0xffffffff hits opcOp with bogus funct7.
	for _, w := range []uint32{0xffffffff, 0x00000001, 0x0000007f} {
		if _, err := Decode(w); err == nil {
			t.Errorf("Decode(%#08x) succeeded, want error", w)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"", "bogus x1, x2, x3", "add x1, x2", "add x99, x2, x3",
		"ld x1, 8(y2)", "ld x1, zz(x2)", "addi x1, x2, banana",
		"beq x1, x2", "# only a comment",
	}
	for _, line := range bad {
		if _, err := Assemble(line); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", line)
		}
	}
}

func TestAssembleProgram(t *testing.T) {
	src := `
# a tiny kernel
addi x1, x0, 5
addi x2, x0, 3    # comment
mul x3, x1, x2
sd x3, 0(x4)
`
	code, err := AssembleProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != 4 {
		t.Fatalf("len = %d, want 4", len(code))
	}
	if code[2].Op != MUL || code[2].Rd != 3 {
		t.Errorf("instr 2 = %s", code[2])
	}
	if _, err := AssembleProgram("addi x1, x0, 1\nbroken"); err == nil {
		t.Error("AssembleProgram with bad line succeeded")
	}
}

func TestReadsWrites(t *testing.T) {
	cases := []struct {
		ins    Instr
		reads  []uint8
		writes uint8
	}{
		{R(ADD, 3, 1, 2), []uint8{1, 2}, 3},
		{I(ADDI, 3, 1, 5), []uint8{1}, 3},
		{Load(LD, 3, 1, 0), []uint8{1}, 3},
		{Store(SD, 2, 1, 0), []uint8{1, 2}, 0},
		{Branch(BEQ, 1, 2, 8), []uint8{1, 2}, 0},
		{I(ADDI, 0, 0, 0), nil, 0}, // NOP: x0 never read/written
		{Instr{Op: RDCYCLE, Rd: 7}, nil, 7},
		{Instr{Op: LUI, Rd: 4, Imm: 1}, nil, 4},
	}
	for _, c := range cases {
		got := c.ins.Reads()
		if len(got) != len(c.reads) {
			t.Errorf("%s: Reads = %v, want %v", c.ins, got, c.reads)
			continue
		}
		for i := range got {
			if got[i] != c.reads[i] {
				t.Errorf("%s: Reads = %v, want %v", c.ins, got, c.reads)
			}
		}
		if w := c.ins.Writes(); w != c.writes {
			t.Errorf("%s: Writes = %d, want %d", c.ins, w, c.writes)
		}
	}
}

func TestProgramImageRoundTrip(t *testing.T) {
	p := NewProgram(0x8000_0000,
		I(ADDI, 1, 0, 7),
		R(MUL, 2, 1, 1),
		Load(LD, 3, 2, 16),
		Branch(BNE, 3, 0, -8),
	)
	img := p.Image()
	if len(img) != 16 {
		t.Fatalf("image length = %d, want 16", len(img))
	}
	back, err := LoadImage(p.Base, img)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != p.Len() {
		t.Fatalf("len = %d, want %d", back.Len(), p.Len())
	}
	for i := range p.Code {
		if back.Code[i] != p.Code[i] {
			t.Errorf("instr %d: %s != %s", i, back.Code[i], p.Code[i])
		}
	}
	if _, err := LoadImage(0, []byte{1, 2, 3}); err == nil {
		t.Error("LoadImage of misaligned image succeeded")
	}
}

func TestProgramAddressing(t *testing.T) {
	p := NewProgram(0x1000, NOP(), NOP(), NOP())
	if p.AddrOf(2) != 0x1008 {
		t.Errorf("AddrOf(2) = %#x", p.AddrOf(2))
	}
	if p.End() != 0x100c {
		t.Errorf("End = %#x", p.End())
	}
	if p.IndexOf(0x1004) != 1 {
		t.Errorf("IndexOf(0x1004) = %d", p.IndexOf(0x1004))
	}
	for _, addr := range []uint64{0xfff, 0x100c, 0x1002} {
		if p.IndexOf(addr) != -1 {
			t.Errorf("IndexOf(%#x) = %d, want -1", addr, p.IndexOf(addr))
		}
	}
}

func TestDepChain(t *testing.T) {
	head := []Instr{{Op: XOR}}
	chain := AppendDepChain(head, 5, 4)
	if len(chain) != 5 || chain[0].Op != XOR {
		t.Fatalf("chain = %v, want the head followed by 4 instructions", chain)
	}
	chain = chain[1:]
	for i, ins := range chain {
		if ins.Op != ADDI || ins.Rd != 5 || ins.Rs1 != 5 {
			t.Errorf("chain[%d] = %s, want addi x5, x5, 1", i, ins)
		}
	}
}

// Property: sign extension of immediates survives encode/decode for loads.
func TestQuickLoadImmediates(t *testing.T) {
	f := func(raw int16) bool {
		imm := int64(raw % 2048)
		ins := Load(LD, 1, 2, imm)
		back, err := Decode(ins.Encode())
		return err == nil && back.Imm == imm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftAndCompareExtensions(t *testing.T) {
	cases := []struct {
		ins  Instr
		want uint32
	}{
		{R(SLTU, 3, 1, 2), 0x0020b1b3},
		{R(SRA, 3, 1, 2), 0x4020d1b3},
		{I(SLLI, 3, 1, 5), 0x00509193},
		{I(SRLI, 3, 1, 5), 0x0050d193},
		{I(SRAI, 3, 1, 5), 0x4050d193},
		{I(SRAI, 3, 1, 63), 0x43f0d193}, // RV64: 6-bit shamt
	}
	for _, c := range cases {
		if got := c.ins.Encode(); got != c.want {
			t.Errorf("Encode(%s) = %#08x, want %#08x", c.ins, got, c.want)
		}
		back, err := Decode(c.ins.Encode())
		if err != nil || back != c.ins {
			t.Errorf("round trip %s -> %v (%v)", c.ins, back, err)
		}
	}
	// Reserved shift encodings must not decode.
	if _, err := Decode(0x8050d193); err == nil { // funct6=0x20 (invalid)
		t.Error("invalid shift funct6 decoded")
	}
}

// The op predicates as switch and compare chains, the definitions the
// flags table replaced.
func oldIsLoad(o Op) bool  { return o == LD || o == LW || o == LRD }
func oldIsStore(o Op) bool { return o == SD || o == SW || o == SCD }
func oldIsMem(o Op) bool   { return oldIsLoad(o) || oldIsStore(o) }

func oldHasRd(o Op) bool {
	switch o {
	case SD, SW, BEQ, BNE, FENCE, ECALL:
		return false
	}
	return o < numOps
}

func oldHasRs1(o Op) bool {
	switch o {
	case LUI, JAL, RDCYCLE, FENCE, ECALL:
		return false
	}
	return o < numOps
}

func oldHasRs2(o Op) bool {
	switch o {
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, SLT, SLTU, MUL, DIV, REM, SD, SW, SCD, BEQ, BNE:
		return true
	}
	return false
}

// TestOpFlagsMatchDefinitions checks every op, and ops past the subset,
// against the predicates' switch definitions.
func TestOpFlagsMatchDefinitions(t *testing.T) {
	preds := []struct {
		name     string
		got, def func(Op) bool
	}{
		{"IsLoad", Op.IsLoad, oldIsLoad},
		{"IsStore", Op.IsStore, oldIsStore},
		{"IsMem", Op.IsMem, oldIsMem},
		{"HasRd", Op.HasRd, oldHasRd},
		{"HasRs1", Op.HasRs1, oldHasRs1},
		{"HasRs2", Op.HasRs2, oldHasRs2},
	}
	for op := Op(0); op <= numOps+1; op++ {
		for _, p := range preds {
			if got, want := p.got(op), p.def(op); got != want {
				t.Errorf("%v.%s() = %v, want %v", op, p.name, got, want)
			}
		}
	}
	for _, p := range preds {
		if p.got(255) {
			t.Errorf("Op(255).%s() = true, want false", p.name)
		}
	}
}
