package fuzz

import (
	"math/rand"
	"testing"

	"sonar/internal/isa"
	"sonar/internal/monitor"
)

// Property: the corpus best-interval vector is the running minimum of every
// offered interval, regardless of retention decisions.
func TestQuickCorpusBestIsRunningMin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		c := NewCorpus()
		ref := map[int]int64{}
		for i := 0; i < 50; i++ {
			m := map[int]int64{}
			for k, kn := 0, 1+rng.Intn(4); k < kn; k++ {
				m[rng.Intn(6)] = int64(rng.Intn(40))
			}
			for id, v := range m {
				if old, ok := ref[id]; !ok || v < old {
					ref[id] = v
				}
			}
			c.Offer(&Seed{TC: &Testcase{}, Intvls: vec(m), Dir: +1, Target: -1})
		}
		for id, want := range ref {
			if got := c.Best(id); got != want {
				t.Fatalf("trial %d: Best(%d) = %d, want %d", trial, id, got, want)
			}
		}
		for id := 0; id < 6; id++ {
			if _, ok := ref[id]; !ok && c.Best(id) != monitor.NoInterval {
				t.Fatalf("trial %d: Best(%d) invented a value", trial, id)
			}
		}
	}
}

// Property: selection never targets a triggered (zero-interval) point while
// a non-zero point exists, and always returns a retained seed.
func TestQuickSelectionSkipsTriggered(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		c := NewCorpus()
		zeros := map[int]bool{}
		nonzero := 0
		for i := 0; i < 20; i++ {
			id := rng.Intn(10)
			v := int64(rng.Intn(5))
			if v == 0 {
				zeros[id] = true
			} else {
				nonzero++
			}
			c.Offer(&Seed{TC: &Testcase{}, Intvls: vec(map[int]int64{id: v}), Dir: +1, Target: -1})
		}
		if c.Len() == 0 {
			continue
		}
		seed, target := c.Select(rng, true)
		if seed == nil {
			t.Fatal("nil seed from non-empty corpus")
		}
		if target >= 0 && c.Best(target) == 0 && nonzero > 0 {
			// Only allowed if every point with a non-zero history has
			// since been driven to zero.
			allZero := true
			for id := 0; id < 10; id++ {
				if b := c.Best(id); b != monitor.NoInterval && b != 0 {
					allZero = false
				}
			}
			if !allZero {
				t.Fatalf("trial %d: targeted triggered point %d", trial, target)
			}
		}
	}
}

// Property: every generated or mutated testcase builds into a program whose
// instructions all encode/decode, with a well-formed secret region.
func TestQuickTestcasesAlwaysWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tc := Generate(rng, true)
	for i := 0; i < 300; i++ {
		switch rng.Intn(3) {
		case 0:
			tc = Generate(rng, i%2 == 0)
		case 1:
			tc = MutateDirected(&Seed{TC: tc, Dir: 1 - 2*rng.Intn(2)}, rng)
		case 2:
			tc = MutateRandom(&Seed{TC: tc}, rng)
		}
		prog, s, e := tc.Build()
		if s <= 0 || e <= s || e > prog.Len() {
			t.Fatalf("iter %d: secret range [%d,%d) of %d", i, s, e, prog.Len())
		}
		for j, ins := range prog.Code {
			back, err := isa.Decode(ins.Encode())
			if err != nil || back != ins {
				t.Fatalf("iter %d instr %d (%s): encode/decode broken (%v)", i, j, ins, err)
			}
		}
		if tc.ProbeDelay < 0 || tc.ProbeDelay > 61 {
			t.Fatalf("iter %d: ProbeDelay %d out of range", i, tc.ProbeDelay)
		}
	}
}
