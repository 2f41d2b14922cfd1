package fuzz

import (
	"math/rand"
	"sort"
	"testing"

	"sonar/internal/monitor"
	"sonar/internal/uarch"
)

func liteDUT() *DUT {
	return NewDUT(uarch.NewSoC(uarch.BoomConfig(), 1, nil, nil))
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(7)), false)
	b := Generate(rand.New(rand.NewSource(7)), false)
	pa, sa, ea := a.Build()
	pb, sb, eb := b.Build()
	if sa != sb || ea != eb || pa.Len() != pb.Len() {
		t.Fatal("same seed produced different testcases")
	}
	for i := range pa.Code {
		if pa.Code[i] != pb.Code[i] {
			t.Fatalf("instruction %d differs", i)
		}
	}
}

func TestBuildSecretRange(t *testing.T) {
	tc := Generate(rand.New(rand.NewSource(3)), false)
	prog, start, end := tc.Build()
	if start <= 0 || end <= start || end > prog.Len() {
		t.Fatalf("secret range [%d,%d) of %d instructions", start, end, prog.Len())
	}
	// The region must start with the secret load.
	first := prog.Code[start]
	if !first.Op.IsLoad() || first.Rd != RegSecret || first.Rs1 != RegSecretBase {
		t.Errorf("secret region starts with %s, want ld x%d, 0(x%d)", first, RegSecret, RegSecretBase)
	}
	// Program must terminate with ecall.
	if prog.Code[prog.Len()-1].Op.String() != "ecall" {
		t.Error("program does not end with ecall")
	}
}

func TestExecuteRunsAndSnapshots(t *testing.T) {
	d := liteDUT()
	tc := Generate(rand.New(rand.NewSource(5)), false)
	ex := d.Execute(tc, 0)
	if len(ex.Log) == 0 {
		t.Fatal("no commits")
	}
	if ex.Snap == nil || len(ex.Snap.Points) != d.Mon.NumPoints() {
		t.Fatal("snapshot missing or wrong size")
	}
	if ex.Cycles <= 0 || ex.Cycles >= uarch.BoomConfig().MaxCycles {
		t.Fatalf("cycles = %d", ex.Cycles)
	}
	// Determinism: same testcase + same secret => identical timings.
	ex2 := d.Execute(tc, 0)
	if len(ex2.Log) != len(ex.Log) {
		t.Fatal("re-execution changed commit count")
	}
	for i := range ex.Log {
		if ex.Log[i].Cycle != ex2.Log[i].Cycle {
			t.Fatalf("re-execution drifted at commit %d", i)
		}
	}
}

// The secret-dependent divide pattern must expose a timing difference
// between secrets — the core mechanism every campaign relies on.
func TestSecretDivExposesTimingDifference(t *testing.T) {
	d := liteDUT()
	tc := &Testcase{
		HeadChain: nil,
		Patterns:  []SecretPattern{PatternDiv},
		Probe:     PatternDiv,
	}
	exA := d.Execute(tc, 0)
	exB := d.Execute(tc, 1)
	diff := false
	n := len(exA.Log)
	if len(exB.Log) < n {
		n = len(exB.Log)
	}
	for i := 0; i < n; i++ {
		if exA.Log[i].Cycle != exB.Log[i].Cycle {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("secret-dependent divide produced identical timing under both secrets")
	}
}

func TestMonitoringWindowOpensDuringSecretRegion(t *testing.T) {
	d := liteDUT()
	tc := Generate(rand.New(rand.NewSource(11)), false)
	ex := d.Execute(tc, 1)
	// With the window restricted to the secret region, at least some
	// points must still record events (the secret ops issue requests).
	events := 0
	for i := range ex.Snap.Points {
		events += ex.Snap.Points[i].EventCount
	}
	if events == 0 {
		t.Error("no contention-state events inside the monitoring window")
	}
}

func TestCorpusRetentionRule(t *testing.T) {
	c := NewCorpus()
	tc := &Testcase{}
	if !c.Offer(&Seed{TC: tc, Intvls: vec(map[int]int64{1: 10}), Dir: +1, Target: -1}) {
		t.Fatal("first observation not retained")
	}
	if c.Offer(&Seed{TC: tc, Intvls: vec(map[int]int64{1: 10}), Dir: +1, Target: -1}) {
		t.Error("equal interval retained")
	}
	if c.Offer(&Seed{TC: tc, Intvls: vec(map[int]int64{1: 12}), Dir: +1, Target: -1}) {
		t.Error("worse interval retained")
	}
	if !c.Offer(&Seed{TC: tc, Intvls: vec(map[int]int64{1: 4}), Dir: +1, Target: -1}) {
		t.Error("improved interval not retained")
	}
	if !c.Offer(&Seed{TC: tc, Intvls: vec(map[int]int64{2: 100}), Dir: +1, Target: -1}) {
		t.Error("new point not retained")
	}
	if c.Len() != 3 {
		t.Errorf("corpus size = %d, want 3", c.Len())
	}
	if c.Best(1) != 4 {
		t.Errorf("Best(1) = %d, want 4", c.Best(1))
	}
	if c.Best(99) != monitor.NoInterval {
		t.Error("Best of unknown point should be NoInterval")
	}
}

func TestCorpusSelectionPrioritizesSmallestNonzero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewCorpus()
	c.Offer(&Seed{TC: &Testcase{}, Intvls: vec(map[int]int64{1: 0, 2: 9, 3: 3}), Dir: +1, Target: -1})
	c.Offer(&Seed{TC: &Testcase{}, Intvls: vec(map[int]int64{2: 7}), Dir: +1, Target: -1})
	counts := map[int]int{}
	for i := 0; i < 400; i++ {
		seed, target := c.Select(rng, true)
		if seed == nil {
			t.Fatal("no seed selected")
		}
		// Point 1 is already triggered (interval 0) and must never be
		// targeted; selection among the rest is rank-weighted.
		if target == 1 {
			t.Fatal("selected an already-triggered point")
		}
		counts[target]++
	}
	// Point 3 (interval 3) must be preferred over point 2 (interval 7/9).
	if counts[3] <= counts[2] {
		t.Errorf("rank weighting broken: counts = %v", counts)
	}
	// Unprioritized selection must still return something valid.
	seed, _ := c.Select(rng, false)
	if seed == nil {
		t.Fatal("unprioritized selection returned nil")
	}
}

// selectByDefinition is Corpus.Select's prioritized policy written
// plainly: rank every untriggered point by (best interval, id), draw the
// rank geometrically over the first 16, then draw uniformly among the seeds
// achieving the target's best, in corpus order.
func selectByDefinition(c *Corpus, rng *rand.Rand) (*Seed, int) {
	var ranked []rankedPoint
	for _, pi := range c.best {
		if pi.Intvl != 0 {
			ranked = append(ranked, rankedPoint{pi.Point, pi.Intvl})
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].less(ranked[j]) })
	r := 0
	for r < len(ranked)-1 && r < 15 && rng.Intn(3) == 0 {
		r++
	}
	target := ranked[r]
	var hits []*Seed
	for _, s := range c.seeds {
		for _, pi := range s.Intvls {
			if pi == (PointIntvl{target.id, target.v}) {
				hits = append(hits, s)
			}
		}
	}
	return hits[rng.Intn(len(hits))], target.id
}

// Select must draw the same RNG values and pick the same seed as its
// definition, both when the seeds tied at the target fit Select's index
// buffer and when they overflow it.
func TestCorpusSelectMatchesDefinition(t *testing.T) {
	for _, tied := range []int{1, 5, selectHits, selectHits + 1, 2 * selectHits} {
		c := NewCorpus()
		for i := 0; i < tied; i++ {
			// Every seed holds interval 5 at point 0 and is retained for
			// a fresh point of its own at a larger interval.
			c.Offer(&Seed{TC: &Testcase{}, Intvls: vec(map[int]int64{0: 5, 100 + i: 10 + int64(i%7)}), Dir: +1, Target: -1})
		}
		if c.Len() != tied {
			t.Fatalf("tied=%d: corpus holds %d seeds", tied, c.Len())
		}
		got, want := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			gs, gt := c.Select(got, true)
			ws, wt := selectByDefinition(c, want)
			if gs != ws || gt != wt {
				t.Fatalf("tied=%d draw %d: Select picked (%p, %d), definition (%p, %d)", tied, i, gs, gt, ws, wt)
			}
		}
		if got.Int63() != want.Int63() {
			t.Fatalf("tied=%d: RNG streams diverged", tied)
		}
	}
}

func TestMutateDirectedMovesTimingMonotonically(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// The probe's effective delay is the head-chain length (2 cycles per
	// link) plus the cycle-granular ProbeDelay; Dir=+1 mutations must
	// increase it, Dir=-1 must decrease it (until clamped at zero).
	delayOf := func(tc *Testcase) int { return 2*len(tc.HeadChain) + tc.ProbeDelay }
	base := Generate(rng, false)
	base.ProbeDelay = 25
	for _, dir := range []int{+1, -1} {
		seed := &Seed{TC: base, Dir: dir}
		for i := 0; i < 30; i++ {
			m := MutateDirected(seed, rng)
			if dir > 0 && delayOf(m) <= delayOf(base) {
				t.Fatalf("Dir=+1 delay %d -> %d, want growth", delayOf(base), delayOf(m))
			}
			if dir < 0 && delayOf(m) >= delayOf(base) {
				t.Fatalf("Dir=-1 delay %d -> %d, want shrinkage", delayOf(base), delayOf(m))
			}
		}
	}
	// Mutation must not alias the parent's slices.
	grown := MutateDirected(&Seed{TC: base, Dir: +1}, rng)
	if len(base.HeadChain) > 0 && len(grown.HeadChain) > 0 {
		old := base.HeadChain[0]
		grown.HeadChain[0] = randomFiller(rng)
		if base.HeadChain[0] != old {
			t.Error("mutation aliased parent testcase")
		}
	}
	// ProbeDelay clamps at [0, 61].
	low := new(Testcase)
	low.copyFrom(base)
	low.ProbeDelay = 0
	for i := 0; i < 20; i++ {
		if m := MutateDirected(&Seed{TC: low, Dir: -1}, rng); m.ProbeDelay < 0 {
			t.Fatal("ProbeDelay went negative")
		}
	}
}

func TestMutateRandomPreservesTemplateShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := Generate(rng, false)
	seed := &Seed{TC: base}
	for i := 0; i < 50; i++ {
		m := MutateRandom(seed, rng)
		_, start, end := m.Build()
		if start <= 0 || end <= start {
			t.Fatalf("mutation %d broke the secret region", i)
		}
	}
}

func TestCampaignSmoke(t *testing.T) {
	st := RunParallelExec(liteExec, SonarOptions(15))
	if len(st.PerIteration) != 15 {
		t.Fatalf("iterations recorded = %d", len(st.PerIteration))
	}
	last := 0
	for _, it := range st.PerIteration {
		if it.CumPoints < last {
			t.Fatal("cumulative triggered points decreased")
		}
		last = it.CumPoints
	}
	if st.PerIteration[14].CumPoints == 0 {
		t.Error("no contention triggered in 15 iterations")
	}
	if st.ExecutedCycles == 0 {
		t.Error("no cycles recorded")
	}
}

func TestCampaignRandomBaselineRetainsNothing(t *testing.T) {
	st := RunParallelExec(liteExec, RandomOptions(5))
	if st.CorpusSize != 0 {
		t.Errorf("random baseline corpus size = %d, want 0", st.CorpusSize)
	}
}

func TestCampaignReproducible(t *testing.T) {
	a := RunParallelExec(liteExec, SonarOptions(8))
	b := RunParallelExec(liteExec, SonarOptions(8))
	for i := range a.PerIteration {
		if a.PerIteration[i] != b.PerIteration[i] {
			t.Fatalf("iteration %d differs: %+v vs %+v", i, a.PerIteration[i], b.PerIteration[i])
		}
	}
}

func TestCampaignDualCore(t *testing.T) {
	opt := SonarOptions(6)
	opt.DualCore = true
	st := RunParallelExec(func() Executor { return NewDUT(uarch.NewSoC(uarch.BoomConfig(), 2, nil, nil)) }, opt)
	if len(st.PerIteration) != 6 {
		t.Fatal("dual-core campaign did not complete")
	}
	if st.PerIteration[5].CumPoints == 0 {
		t.Error("dual-core campaign triggered nothing")
	}
}
