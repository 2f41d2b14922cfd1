// Package baseline implements the comparators Sonar is evaluated against:
// plain random testing (Figure 8), a SpecDoctor-style coverage-guided
// fuzzer (Figure 11), and the two instrumentation cost models behind the
// paper's O(n) vs O(n²) scalability argument (§8.3.4).
package baseline

import (
	"math/rand"

	"sonar/internal/detect"
	"sonar/internal/fuzz"
)

// RunSpecDoctor runs a SpecDoctor-style campaign: testcases are retained
// when they reach new coverage (newly triggered contention points stand in
// for SpecDoctor's transient-path coverage), and mutation is random — there
// is no contention-state feedback and no directed mutation. The paper finds
// Sonar triggers 2.13x more new contention points under equal iterations.
func RunSpecDoctor(d *fuzz.DUT, iterations int, seed int64) *fuzz.Stats {
	rng := rand.New(rand.NewSource(seed))
	var corpus []*fuzz.Seed
	st := &fuzz.Stats{TriggeredPoints: make(map[int]bool)}
	var f detect.Finding
	var triggered []int

	for it := 1; it <= iterations; it++ {
		var tc *fuzz.Testcase
		if len(corpus) > 0 && rng.Float64() < 0.7 {
			tc = fuzz.MutateRandom(corpus[rng.Intn(len(corpus))], rng)
		} else {
			tc = fuzz.Generate(rng, false)
		}
		exA := d.Execute(tc, 0)
		exB := d.Execute(tc, 1)
		st.ExecutedCycles += exA.Cycles + exB.Cycles

		newPts := 0
		for _, ex := range []*fuzz.Execution{exA, exB} {
			triggered = ex.Snap.AppendTriggered(triggered[:0])
			for _, id := range triggered {
				if !st.TriggeredPoints[id] {
					st.TriggeredPoints[id] = true
					newPts++
				}
			}
		}
		// Coverage feedback: retain on new coverage only.
		if newPts > 0 {
			corpus = append(corpus, &fuzz.Seed{TC: tc})
		}
		cum := 0
		if len(st.PerIteration) > 0 {
			cum = st.PerIteration[len(st.PerIteration)-1].CumTimingDiffs
		}
		if detect.Analyze(&f, exA.Log, exB.Log, exA.Snap, exB.Snap) {
			cum++
		}
		st.PerIteration = append(st.PerIteration, fuzz.IterStats{
			Iteration:      it,
			NewPoints:      newPts,
			CumPoints:      len(st.TriggeredPoints),
			CumTimingDiffs: cum,
		})
	}
	st.CorpusSize = len(corpus)
	return st
}
