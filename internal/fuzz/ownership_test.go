package fuzz

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"sonar/internal/boom"
	"sonar/internal/detect"
	"sonar/internal/isa"
)

// dirtyTestcase returns a testcase whose lists hold stale entries and have
// room past their length: what a recycled outcome slot holds.
func dirtyTestcase(rng *rand.Rand) *Testcase {
	tc := Generate(rng, true)
	for i := 0; i < 40; i++ {
		tc.HeadChain = append(tc.HeadChain, randomFiller(rng))
		tc.Prologue = append(tc.Prologue, randomFiller(rng))
		tc.Epilogue = append(tc.Epilogue, randomFiller(rng))
		tc.Attacker = append(tc.Attacker, randomFiller(rng))
		tc.Patterns = append(tc.Patterns, SecretPattern(i%int(numPatterns)))
	}
	tc.HeadChain, tc.Prologue, tc.Epilogue = tc.HeadChain[:3], tc.Prologue[:1], tc.Epilogue[:5]
	tc.Attacker, tc.Patterns = tc.Attacker[:2], tc.Patterns[:4]
	tc.ProbeDelay, tc.ProbeOffset = 60, 704
	return tc
}

// twinRNGs returns two generators at the same position of one stream.
func twinRNGs(seed int64) (*rand.Rand, *countedSource, *rand.Rand, *countedSource) {
	a, b := newCountedSource(seed, 0), newCountedSource(seed, 0)
	return rand.New(a), a, rand.New(b), b
}

// TestRecycledTestcaseEqualsFresh: generating and mutating into a dirty,
// over-capacity testcase gives a testcase Marshal-equal to one built fresh,
// after the same RNG draws, and leaves the parent seed's testcase
// untouched. The edge shapes cover every enhanceSimilarity branch with
// and without memory operations to act on.
func TestRecycledTestcaseEqualsFresh(t *testing.T) {
	junk := rand.New(rand.NewSource(99))
	noMem := &Testcase{
		HeadChain: isa.AppendDepChain(nil, RegChain, 3),
		Prologue:  []isa.Instr{isa.R(isa.ADD, 1, 2, 3)},
		Patterns:  []SecretPattern{PatternDiv},
		Epilogue:  []isa.Instr{isa.R(isa.MUL, 4, 5, 6), isa.I(isa.ADDI, 1, 1, 2)},
	}
	oneMem := &Testcase{
		Patterns: []SecretPattern{PatternLoad},
		Prologue: []isa.Instr{isa.Load(isa.LD, 1, RegDataBase, 64)},
		Epilogue: []isa.Instr{isa.R(isa.XOR, 2, 2, 3)},
	}
	check := func(t *testing.T, what string, fresh, recycled *Testcase, fa, fb *countedSource) {
		t.Helper()
		if got, want := recycled.Marshal(), fresh.Marshal(); got != want {
			t.Fatalf("%s: recycled testcase differs from the fresh one:\n%s\nvs\n%s", what, got, want)
		}
		if fa.cursor() != fb.cursor() {
			t.Fatalf("%s: recycled build drew %d values, fresh %d", what, fb.cursor(), fa.cursor())
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		dual := seed%2 == 1
		ra, ca, rb, cb := twinRNGs(seed)
		fresh := Generate(ra, dual)
		recycled := dirtyTestcase(junk)
		recycled.generate(rb, dual)
		check(t, "generate", fresh, recycled, ca, cb)

		parents := []*Testcase{fresh, noMem, oneMem}
		for _, parent := range parents {
			before := parent.Marshal()
			for _, dir := range []int{-1, +1} {
				seedTC := &Seed{TC: parent, Dir: dir}
				ra, ca, rb, cb := twinRNGs(seed*7 + int64(dir))
				dst := dirtyTestcase(junk)
				dst.mutateDirected(seedTC, rb)
				check(t, "mutateDirected", MutateDirected(seedTC, ra), dst, ca, cb)

				ra, ca, rb, cb = twinRNGs(seed*11 + int64(dir))
				dst = dirtyTestcase(junk)
				dst.mutateRandom(seedTC, rb)
				check(t, "mutateRandom", MutateRandom(seedTC, ra), dst, ca, cb)

				// enhanceSimilarity alone, drawn many times per shape, so
				// every one of its six branches runs on every shape.
				ra, ca, rb, cb = twinRNGs(seed*13 + int64(dir))
				want, got := MutateRandom(&Seed{TC: parent}, rand.New(rand.NewSource(seed))), dirtyTestcase(junk)
				got.copyFrom(want)
				for i := 0; i < 4; i++ {
					want.enhanceSimilarity(ra)
					got.enhanceSimilarity(rb)
				}
				check(t, "enhanceSimilarity", want, got, ca, cb)
			}
			if parent.Marshal() != before {
				t.Fatalf("seed %d: mutation wrote the parent testcase", seed)
			}
		}
	}
}

// fillAll overwrites every element of s up to its capacity with v.
func fillAll[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// scribbleSlots overwrites all storage of outcome slots — their testcases'
// lists, triggered lists, feedback vectors and findings — up to capacity.
func scribbleSlots(outs []outcome) {
	bad := isa.Instr{Op: isa.DIV, Rd: 31, Rs1: 31, Rs2: 31, Imm: -1}
	for i := range outs {
		o := &outs[i]
		for _, l := range [][]isa.Instr{o.tc.HeadChain, o.tc.Prologue, o.tc.Epilogue, o.tc.Attacker} {
			fillAll(l, bad)
		}
		fillAll(o.tc.Patterns, numPatterns)
		fillAll(o.triggered, -7)
		fillAll(o.intvls, PointIntvl{Point: -7, Intvl: -7})
		fillAll(o.finding.Affected, detect.Affected{Idx: -7, CCDA: -7})
		fillAll(o.finding.StateDiffs, detect.StateDiff{PointID: -7})
	}
}

// keptBytes renders everything a campaign keeps: the Stats wire form, the
// checkpoint with its seeds marshalled afresh, and the global corpus.
func keptBytes(t *testing.T, lc *LeaseCoordinator) []byte {
	t.Helper()
	lc.wires, lc.digests = nil, []string{""} // marshal every seed again
	ckpt, err := lc.Snapshot(lc.Finished()).Encode()
	if err != nil {
		t.Fatal(err)
	}
	st, err := json.Marshal(lc.Stats().Wire())
	if err != nil {
		t.Fatal(err)
	}
	return append(ckpt, st...)
}

// TestKeptNeverAliasesSlot: nothing a campaign keeps points into an outcome
// slot. After lite and dual-lite campaigns at 1 and 4 workers, and after a
// lease campaign, every slot — the local shards', the lease executor's and
// the coordinator's replay slots — is overwritten, and the Stats wire form
// and the checkpoint bytes must not change.
func TestKeptNeverAliasesSlot(t *testing.T) {
	dualLite := func() Executor { return NewDUT(boom.NewDualLite()) }
	for _, c := range []struct {
		name string
		exec func() Executor
		dual bool
	}{{"lite", liteExec, false}, {"dual-lite", dualLite, true}} {
		for _, workers := range []int{1, 4} {
			opt := SonarOptions(96)
			opt.Workers, opt.BatchSize, opt.DualCore = workers, 8, c.dual
			e := c.exec()
			co := newCoordinator(NewLeaseCoordinator(e, opt), c.exec, -1)
			co.run(e)
			if len(co.lc.Stats().Findings) == 0 || co.lc.CorpusLen() == 0 {
				t.Fatalf("%s workers=%d: campaign kept no finding or seed", c.name, workers)
			}
			before := keptBytes(t, co.lc)
			for _, w := range co.ws {
				if w != nil {
					scribbleSlots(w.slots)
				}
			}
			if !bytes.Equal(keptBytes(t, co.lc), before) {
				t.Errorf("%s workers=%d: overwriting the outcome slots changed what the campaign kept", c.name, workers)
			}
		}
	}

	opt := SonarOptions(96)
	opt.Workers, opt.BatchSize = 2, 8
	lc := NewLeaseCoordinator(liteExec(), opt)
	e := liteExec()
	var held *HeldCorpus
	for !lc.Finished() {
		for _, shard := range lc.OpenShards() {
			l, err := lc.Lease(shard, held.Ref())
			if err != nil {
				t.Fatalf("Lease(%d): %v", shard, err)
			}
			res, next, err := ExecuteLease(e, lc.Shape(), 1, l, held)
			if err != nil {
				t.Fatalf("ExecuteLease: %v", err)
			}
			held = next
			if err := lc.Report(res); err != nil {
				t.Fatalf("Report(%d): %v", shard, err)
			}
		}
	}
	before := keptBytes(t, lc)
	for _, cache := range []*shardCache{&lc.shards, held.shards} {
		if len(cache.ws) == 0 {
			t.Fatal("lease campaign kept no shard worker")
		}
		for _, w := range cache.ws {
			scribbleSlots(w.slots)
		}
	}
	if !bytes.Equal(keptBytes(t, lc), before) {
		t.Error("lease campaign: overwriting the outcome slots changed what the campaign kept")
	}
}
