package fuzz

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
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
