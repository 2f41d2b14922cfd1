package fuzz

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sonar/internal/isa"
)

func TestTestcaseMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		tc := Generate(rng, i%2 == 0)
		text := tc.Marshal()
		back, err := Unmarshal(text)
		if err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, text)
		}
		if back.Probe != tc.Probe || back.ProbeOffset != tc.ProbeOffset || back.ProbeDelay != tc.ProbeDelay {
			t.Fatalf("case %d: template metadata drifted", i)
		}
		if len(back.Patterns) != len(tc.Patterns) {
			t.Fatalf("case %d: patterns %d != %d", i, len(back.Patterns), len(tc.Patterns))
		}
		pa, _, _ := tc.Build()
		pb, _, _ := back.Build()
		if pa.Len() != pb.Len() {
			t.Fatalf("case %d: rebuilt program length %d != %d", i, pb.Len(), pa.Len())
		}
		for j := range pa.Code {
			if pa.Code[j] != pb.Code[j] {
				t.Fatalf("case %d instr %d: %s != %s", i, j, pb.Code[j], pa.Code[j])
			}
		}
	}
}

func TestTestcaseMarshalIsEditable(t *testing.T) {
	src := `
# sonar testcase
# probe: 1
# probe-offset: 4096
# probe-delay: 12
# patterns: 0 1
.chain
  addi x9, x9, 1
  addi x9, x9, 1
.prologue
  ld x3, 64(x28)
.epilogue
  mul x4, x3, x3
`
	tc, err := Unmarshal(src)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Probe != PatternDiv || tc.ProbeOffset != 4096 || tc.ProbeDelay != 12 {
		t.Errorf("metadata = %+v", tc)
	}
	if len(tc.HeadChain) != 2 || len(tc.Prologue) != 1 || len(tc.Epilogue) != 1 {
		t.Errorf("regions = %d/%d/%d", len(tc.HeadChain), len(tc.Prologue), len(tc.Epilogue))
	}
	if len(tc.Patterns) != 2 || tc.Patterns[0] != PatternLoad || tc.Patterns[1] != PatternDiv {
		t.Errorf("patterns = %v", tc.Patterns)
	}
	// The parsed testcase must build into a runnable program.
	prog, s, e := tc.Build()
	if prog.Len() == 0 || s <= 0 || e <= s {
		t.Error("rebuilt program malformed")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"bad section", ".bogus\n"},
		{"instr outside section", "addi x1, x0, 1\n"},
		{"bad instr", ".chain\n frobnicate x1\n"},
		{"bad probe", "# probe: 99\n"},
		{"bad pattern", "# patterns: banana\n"},
		{"bad offset", "# probe-offset: xyz\n"},
	}
	for _, c := range cases {
		if _, err := Unmarshal(c.src); err == nil {
			t.Errorf("%s: Unmarshal succeeded", c.name)
		}
	}
	// Plain comments and unknown keys are tolerated.
	if _, err := Unmarshal("# hello world\n# future-key: 7\n.chain\n"); err != nil {
		t.Errorf("benign input rejected: %v", err)
	}
}

func TestMarshalMentionsSections(t *testing.T) {
	tc := Generate(rand.New(rand.NewSource(1)), true)
	text := tc.Marshal()
	for _, want := range []string{".chain", ".prologue", ".epilogue", ".attacker", "# patterns:"} {
		if !strings.Contains(text, want) {
			t.Errorf("Marshal missing %q", want)
		}
	}
}

// FuzzUnmarshal feeds arbitrary text to Unmarshal, the parser behind lease
// corpus seeds and checkpoint corpora. It must never panic, and any
// testcase it accepts must marshal to text that parses back to an equal
// testcase, and marshals to the same text again. The seed corpus
// (testdata/fuzz) holds a generated dual-core testcase, one with an empty
// section, and one with a bad header.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		tc, err := Unmarshal(src)
		if err != nil {
			return
		}
		text := tc.Marshal()
		back, err := Unmarshal(text)
		if err != nil {
			t.Fatalf("re-parse of accepted testcase failed: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(back, tc) {
			t.Fatalf("re-parsed testcase differs:\n%+v\nvs\n%+v", back, tc)
		}
		if again := back.Marshal(); again != text {
			t.Fatalf("marshal is not stable:\n%s\nvs\n%s", again, text)
		}
	})
}

// refInstr is the fmt rendering isa.Instr.String replaced; Marshal's text
// is pinned to it byte for byte.
func refInstr(i isa.Instr) string {
	switch {
	case i.Op == isa.RDCYCLE:
		return fmt.Sprintf("rdcycle x%d", i.Rd)
	case i.Op == isa.FENCE || i.Op == isa.ECALL:
		return refOp(i.Op)
	case i.Op == isa.LUI:
		return fmt.Sprintf("lui x%d, %d", i.Rd, i.Imm)
	case i.Op == isa.JAL:
		return fmt.Sprintf("jal x%d, %d", i.Rd, i.Imm)
	case i.Op.IsBranch():
		return fmt.Sprintf("%s x%d, x%d, %d", refOp(i.Op), i.Rs1, i.Rs2, i.Imm)
	case i.Op.IsLoad():
		return fmt.Sprintf("%s x%d, %d(x%d)", refOp(i.Op), i.Rd, i.Imm, i.Rs1)
	case i.Op == isa.SCD:
		return fmt.Sprintf("%s x%d, x%d, 0(x%d)", refOp(i.Op), i.Rd, i.Rs2, i.Rs1)
	case i.Op.IsStore():
		return fmt.Sprintf("%s x%d, %d(x%d)", refOp(i.Op), i.Rs2, i.Imm, i.Rs1)
	case i.Op.HasRs2():
		return fmt.Sprintf("%s x%d, x%d, x%d", refOp(i.Op), i.Rd, i.Rs1, i.Rs2)
	default:
		return fmt.Sprintf("%s x%d, x%d, %d", refOp(i.Op), i.Rd, i.Rs1, i.Imm)
	}
}

// refOp is the fmt rendering of an op: its mnemonic, or Op(n) past ECALL,
// the last op.
func refOp(o isa.Op) string {
	if o > isa.ECALL {
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
	return o.String()
}

// refMarshal is the fmt rendering Marshal replaced.
func refMarshal(tc *Testcase) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# sonar testcase\n")
	fmt.Fprintf(&b, "# probe: %d\n", tc.Probe)
	fmt.Fprintf(&b, "# probe-offset: %d\n", tc.ProbeOffset)
	fmt.Fprintf(&b, "# probe-delay: %d\n", tc.ProbeDelay)
	fmt.Fprintf(&b, "# probe-base: %d\n", tc.ProbeBase)
	patterns := make([]string, len(tc.Patterns))
	for i, p := range tc.Patterns {
		patterns[i] = fmt.Sprint(int(p))
	}
	fmt.Fprintf(&b, "# patterns: %s\n", strings.Join(patterns, " "))
	for _, s := range []struct {
		name string
		code []isa.Instr
	}{{"chain", tc.HeadChain}, {"prologue", tc.Prologue}, {"epilogue", tc.Epilogue}, {"attacker", tc.Attacker}} {
		fmt.Fprintf(&b, ".%s\n", s.name)
		for _, ins := range s.code {
			fmt.Fprintf(&b, "  %s\n", refInstr(ins))
		}
	}
	return b.String()
}

// Marshal and Instr.String append with strconv, not fmt, and must render
// exactly what the fmt-based code did: every op (and one unknown op), under
// register and immediate extremes including negative immediates, and
// generated testcases of both scenarios.
func TestMarshalMatchesFmtReference(t *testing.T) {
	var all []isa.Instr
	for op := isa.Op(0); op <= isa.ECALL+1; op++ {
		for _, f := range []isa.Instr{
			{Rd: 1, Rs1: 2, Rs2: 3, Imm: 4},
			{Rd: 31, Rs1: 0, Rs2: 31, Imm: -8},
			{Rd: 0, Rs1: 29, Rs2: 17, Imm: -1 << 63},
			{Rd: 9, Rs1: 28, Rs2: 0, Imm: 1<<63 - 1},
		} {
			f.Op = op
			if got, want := f.String(), refInstr(f); got != want {
				t.Fatalf("Instr%+v.String() = %q, want %q", f, got, want)
			}
			all = append(all, f)
		}
	}
	tcs := []*Testcase{
		{},
		{Probe: 3, ProbeOffset: -64, ProbeDelay: -2, ProbeBase: 28, Patterns: []SecretPattern{0, 7, 2},
			HeadChain: all[:20], Prologue: all[20:60], Epilogue: all[60:100], Attacker: all[100:]},
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		tcs = append(tcs, Generate(rng, i%2 == 1))
	}
	for i, tc := range tcs {
		if got, want := tc.Marshal(), refMarshal(tc); got != want {
			t.Fatalf("testcase %d: Marshal differs from the fmt reference:\n%s\nvs\n%s", i, got, want)
		}
	}
	for i, tc := range tcs {
		if allocs := testing.AllocsPerRun(10, func() { _ = tc.Marshal() }); allocs > 2 {
			t.Errorf("testcase %d: Marshal allocates %.1f objects per call, want at most 2", i, allocs)
		}
	}
}
