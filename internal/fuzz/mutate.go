package fuzz

import (
	"math/rand"

	"sonar/internal/isa"
)

// MutateDirected applies the interval-guided directed mutation (paper
// §6.2.1) to a copy of the seed's testcase: insert or remove instructions
// at the head of the dependency chain, in the seed's current direction.
// Inserting delays the parsing time of all downstream chain-dependent
// instructions; removing advances it — the monotonic knob the adaptive
// strategy relies on.
func MutateDirected(seed *Seed, rng *rand.Rand) *Testcase {
	tc := new(Testcase)
	tc.mutateDirected(seed, rng)
	return tc
}

// mutateDirected overwrites tc with the directed mutation of seed's
// testcase, writing into tc's own storage.
//
//sonar:alloc-free
func (tc *Testcase) mutateDirected(seed *Seed, rng *rand.Rand) {
	tc.copyFrom(seed.TC)
	k := 1 + rng.Intn(3)
	if rng.Intn(4) == 0 {
		// Occasionally move the whole window by editing the head chain.
		if seed.Dir >= 0 {
			tc.HeadChain = isa.AppendDepChain(tc.HeadChain, RegChain, k)
		} else if len(tc.HeadChain) > k {
			tc.HeadChain = tc.HeadChain[:len(tc.HeadChain)-k]
		} else {
			tc.HeadChain = tc.HeadChain[:0]
		}
	} else {
		// The primary knob: the probe's cycle-granular delay, which moves
		// its request timing without disturbing program layout.
		tc.ProbeDelay += seed.Dir * k
		if tc.ProbeDelay < 0 {
			tc.ProbeDelay = 0
		}
		if tc.ProbeDelay > 61 {
			tc.ProbeDelay = 61
		}
	}
	// A light random touch keeps exploration alive without disrupting the
	// critical structure; similarity enhancement gets its own draw because
	// persistent contention depends on it (§6.2.2).
	if rng.Intn(2) == 0 {
		tc.enhanceSimilarity(rng)
	}
	if rng.Intn(4) == 0 {
		tc.mutateRandomRegion(rng)
	}
}

// MutateRandom applies unguided mutation to a copy of the seed's testcase:
// random region edits only, the behaviour of a fuzzer without the directed
// strategy (Figure 10 ablation).
func MutateRandom(seed *Seed, rng *rand.Rand) *Testcase {
	tc := new(Testcase)
	tc.mutateRandom(seed, rng)
	return tc
}

// mutateRandom overwrites tc with the unguided mutation of seed's
// testcase, writing into tc's own storage.
//
//sonar:alloc-free
func (tc *Testcase) mutateRandom(seed *Seed, rng *rand.Rand) {
	tc.copyFrom(seed.TC)
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		tc.mutateRandomRegion(rng)
	}
}

// mutateRandomRegion applies one structure-agnostic random edit:
// replace/insert/delete a filler, retarget a memory offset, or change the
// probe class. Data-similarity enhancement is deliberately NOT among these:
// it is part of Sonar's directed mutation design (§6.2.2), not of the
// random-mutation baselines.
//
//sonar:alloc-free
func (tc *Testcase) mutateRandomRegion(rng *rand.Rand) {
	region := &tc.Epilogue
	if rng.Intn(2) == 0 && len(tc.Prologue) > 0 {
		region = &tc.Prologue
	}
	switch rng.Intn(6) {
	case 0: // replace a filler
		if len(*region) > 0 {
			(*region)[rng.Intn(len(*region))] = randomFiller(rng)
		}
	case 1: // insert a filler
		*region = append(*region, randomFiller(rng))
	case 2: // delete a filler
		if len(*region) > 1 {
			i := rng.Intn(len(*region))
			*region = append((*region)[:i], (*region)[i+1:]...)
		}
	case 3: // retarget a memory access (base register and offset)
		if n := memOps(*region, nil); n > 0 {
			i := nthMemOp(*region, nil, rng.Intn(n))
			(*region)[i].Imm = int64(rng.Intn(64)-32) * 64
			(*region)[i].Rs1 = fillerBases[rng.Intn(len(fillerBases))]
		}
	case 4: // change the probe class
		tc.Probe = SecretPattern(rng.Intn(int(numPatterns)))
	default: // re-roll one secret-dependent pattern, so lineages do not
		// fixate on secret operations with weak timing signals
		if len(tc.Patterns) > 0 {
			tc.Patterns[rng.Intn(len(tc.Patterns))] = SecretPattern(rng.Intn(int(numPatterns)))
		}
	}
}

// enhanceSimilarity aligns two memory requests onto the same cacheline —
// the data-similarity condition for persistent contention (§6.2.2). It
// aligns either two random fillers, or the probe with a filler (in either
// direction), so the chain-timed probe can revisit a line whose first
// access has fixed timing. Fillers are indexed over the prologue followed
// by the epilogue.
//
//sonar:alloc-free
func (tc *Testcase) enhanceSimilarity(rng *rand.Rand) {
	n := memOps(tc.Prologue, tc.Epilogue)
	switch rng.Intn(6) {
	case 0: // probe adopts a filler's line (base register and offset)
		if n > 0 {
			src := *tc.filler(nthMemOp(tc.Prologue, tc.Epilogue, rng.Intn(n)))
			tc.ProbeOffset = src.Imm
			tc.ProbeBase = src.Rs1
		}
	case 1: // a filler adopts the probe's line
		if n > 0 {
			dst := tc.filler(nthMemOp(tc.Prologue, tc.Epilogue, rng.Intn(n)))
			dst.Rs1, dst.Imm = tc.ProbeBase, tc.ProbeOffset
		}
	case 2, 4, 5: // probe and an epilogue filler jointly move to a fresh line:
		// the pair explores a storage unit the lineage has not visited
		// (keeps persistent-contention discovery from stalling on the
		// ancestors' few lines).
		line := int64(rng.Intn(64)-32) * 64
		base := fillerBases[rng.Intn(len(fillerBases))]
		tc.ProbeOffset = line
		tc.ProbeBase = base
		if en := memOps(tc.Epilogue, nil); en > 0 {
			i := nthMemOp(tc.Epilogue, nil, rng.Intn(en))
			tc.Epilogue[i].Imm = line
			tc.Epilogue[i].Rs1 = base
		} else {
			tc.Epilogue = append(tc.Epilogue, isa.Load(isa.LD, 4, base, line))
		}
	default: // filler-to-filler alignment
		if n < 2 {
			return
		}
		a := nthMemOp(tc.Prologue, tc.Epilogue, rng.Intn(n))
		b := nthMemOp(tc.Prologue, tc.Epilogue, rng.Intn(n))
		if a == b {
			return
		}
		src, dst := tc.filler(a), tc.filler(b)
		dst.Rs1, dst.Imm = src.Rs1, src.Imm
	}
}

// filler returns the filler at index i of the prologue followed by the
// epilogue.
func (tc *Testcase) filler(i int) *isa.Instr {
	if i < len(tc.Prologue) {
		return &tc.Prologue[i]
	}
	return &tc.Epilogue[i-len(tc.Prologue)]
}

// memOps counts the memory operations of region a followed by region b.
func memOps(a, b []isa.Instr) int {
	n := 0
	for _, r := range [2][]isa.Instr{a, b} {
		for i := range r {
			if r[i].Op.IsMem() {
				n++
			}
		}
	}
	return n
}

// nthMemOp returns the index, over region a followed by region b, of their
// k-th memory operation (0-based); k must be below memOps(a, b).
func nthMemOp(a, b []isa.Instr, k int) int {
	for i := range len(a) + len(b) {
		op := isa.Op(0)
		if i < len(a) {
			op = a[i].Op
		} else {
			op = b[i-len(a)].Op
		}
		if op.IsMem() {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("fuzz: memory operation index out of range")
}
