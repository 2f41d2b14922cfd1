//go:build go1.24

package fuzz

import (
	"math/rand"
	"testing"
)

// Installing a shipped seed costs a few objects whatever its size:
// Unmarshal allocates the testcase, one instruction array its sections are
// carved from and the pattern list, and chainDigest only its hex string.
// (The counts depend on escape analysis, so the file builds from go1.24 on,
// the toolchain CI runs it on.)
func TestSeedInstallAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		tc := Generate(rng, i%2 == 1)
		sw := &SeedWire{TC: tc.Marshal(), Intvls: []PointIntvl{{Point: 1, Intvl: 4}, {Point: 9, Intvl: -3}, {Point: 40, Intvl: 1 << 40}}, Dir: -1, Target: 9}
		if n := testing.AllocsPerRun(50, func() { _, _ = Unmarshal(sw.TC) }); n > 3 {
			t.Errorf("seed %d: Unmarshal allocates %.1f objects, want at most 3", i, n)
		}
		prev := chainDigest("", sw)
		if n := testing.AllocsPerRun(50, func() { _ = chainDigest(prev, sw) }); n > 1 {
			t.Errorf("seed %d: chainDigest allocates %.1f objects, want at most 1", i, n)
		}
	}
}
