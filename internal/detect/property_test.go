package detect

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sonar/internal/uarch"
)

// randomLog builds a commit log with strictly increasing cycles.
func randomLog(rng *rand.Rand, n int) []uarch.CommitRecord {
	log := make([]uarch.CommitRecord, n)
	cyc := int64(1)
	for i := range log {
		cyc += int64(rng.Intn(5))
		log[i] = uarch.CommitRecord{Idx: i, Cycle: cyc}
	}
	return log
}

// Property: a run compared against itself never yields affected
// instructions, for arbitrary logs.
func TestQuickCCDSelfComparisonEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		log := randomLog(rng, 1+rng.Intn(30))
		if got := CCDCompare(nil, log, log); len(got) != 0 {
			t.Fatalf("self comparison flagged %v", got)
		}
		if TimingDiff(log, log) {
			t.Fatal("self comparison reported a timing difference")
		}
	}
}

// Property: delaying exactly one commit by d>0 and shifting everything
// after it (in-order commit) flags at most two instructions: the delayed
// one and the first instruction where the queueing effect ends.
func TestQuickCCDSingleDelayLocalized(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(20)
		logA := randomLog(rng, n)
		pos := 1 + rng.Intn(n-1)
		d := int64(1 + rng.Intn(9))
		logB := make([]uarch.CommitRecord, n)
		copy(logB, logA)
		// The delayed instruction and all younger ones shift by d.
		for i := pos; i < n; i++ {
			logB[i].Cycle += d
		}
		affected := CCDCompare(nil, logA, logB)
		if len(affected) != 1 {
			t.Fatalf("trial %d: affected = %v, want exactly the delayed instruction", trial, affected)
		}
		if affected[0].Idx != pos {
			t.Fatalf("trial %d: flagged %d, want %d", trial, affected[0].Idx, pos)
		}
		if affected[0].Delta() != d {
			t.Fatalf("trial %d: delta %d, want %d", trial, affected[0].Delta(), d)
		}
	}
}

// Property: CCDCompare is symmetric in the count of affected instructions.
func TestQuickCCDSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		a := randomLog(rng, 2+rng.Intn(15))
		b := randomLog(rng, len(a))
		fa := CCDCompare(nil, a, b)
		fb := CCDCompare(nil, b, a)
		if len(fa) != len(fb) {
			t.Fatalf("asymmetric: %d vs %d", len(fa), len(fb))
		}
	}
}

// Property: Affected.Delta is non-negative.
func TestQuickDeltaNonNegative(t *testing.T) {
	f := func(a, b int64) bool {
		return Affected{CCDA: a % 100000, CCDB: b % 100000}.Delta() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
