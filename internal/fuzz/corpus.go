package fuzz

import (
	"math/rand"
	"sort"

	"sonar/internal/monitor"
)

// Seed is a retained testcase with the feedback that earned its place.
type Seed struct {
	// TC is the retained testcase itself.
	TC *Testcase
	// Intvls is the per-point minimum distinct-request interval observed
	// when this seed executed.
	Intvls map[int]int64
	// Dir is the adaptive mutation direction: +1 grows the head chain,
	// -1 shrinks it (paper §6.2.1, interval-guided directed mutation).
	Dir int
	// Target is the contention point this seed was last mutated towards.
	Target int
}

// Corpus is the seed corpus with Sonar's retention and selection policies.
type Corpus struct {
	seeds []*Seed
	// best tracks the global minimum interval per contention point.
	best map[int]int64
	// frozen marks storage shared with copy-on-write views (see view): the
	// next mutation must thaw (privately copy) the seed list and best map
	// first. Behaviour is otherwise identical to an unfrozen corpus.
	frozen bool
}

// NewCorpus creates an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{best: make(map[int]int64)}
}

// Len returns the number of retained seeds.
func (c *Corpus) Len() int { return len(c.seeds) }

// Snapshot returns an independent copy of the corpus. The copy shares the
// retained Seed values (immutable after creation) but owns its seed list
// and best-interval map, so parallel workers can extend private snapshots
// of a merged global corpus without synchronization.
func (c *Corpus) Snapshot() *Corpus {
	cp := &Corpus{
		seeds: append([]*Seed(nil), c.seeds...),
		best:  make(map[int]int64, len(c.best)),
	}
	for id, v := range c.best { //sonar:nondeterministic-ok map-to-map copy is order-insensitive
		cp.best[id] = v
	}
	return cp
}

// view freezes the corpus and returns a shallow copy-on-write alias sharing
// its seed list and best-interval map. Views are how the parallel
// coordinator distributes a merged corpus: O(1) per worker per round instead
// of the old per-worker deep Snapshot, with the copy deferred to the first
// mutation (thaw) on whichever side mutates first. Frozen storage is only
// ever read, so lingering views — including those held by abandoned retry
// goroutines — stay safe without synchronization.
func (c *Corpus) view() *Corpus {
	c.frozen = true
	return &Corpus{seeds: c.seeds, best: c.best, frozen: true}
}

// thaw gives a frozen corpus private storage before its first mutation.
func (c *Corpus) thaw() {
	if !c.frozen {
		return
	}
	c.seeds = append([]*Seed(nil), c.seeds...)
	best := make(map[int]int64, len(c.best))
	for id, v := range c.best { //sonar:nondeterministic-ok map-to-map copy is order-insensitive
		best[id] = v
	}
	c.best = best
	c.frozen = false
}

// Best returns the global minimum interval recorded for a point, or
// monitor.NoInterval.
func (c *Corpus) Best(point int) int64 {
	if v, ok := c.best[point]; ok {
		return v
	}
	return monitor.NoInterval
}

// Offer applies the retention rule: the testcase joins the corpus if it
// reduced the minimum reqsIntvl at any contention point below the global
// best (paper §6.2.1 ①). It returns the created seed, or nil if not
// retained. The common rejecting path is read-only, so offering against a
// frozen view costs nothing; the first accepted offer thaws.
func (c *Corpus) Offer(tc *Testcase, intvls map[int]int64, dir int, target int) *Seed {
	improved := false
	for id, v := range intvls { //sonar:nondeterministic-ok read-only improvement probe; min-fold is order-insensitive
		if old, ok := c.best[id]; !ok || v < old {
			improved = true
			break
		}
	}
	if !improved {
		return nil
	}
	c.thaw()
	for id, v := range intvls { //sonar:nondeterministic-ok min-fold is order-insensitive
		if old, ok := c.best[id]; !ok || v < old {
			c.best[id] = v
		}
	}
	s := &Seed{TC: tc, Intvls: intvls, Dir: dir, Target: target}
	c.seeds = append(c.seeds, s)
	return s
}

// Select picks a seed and a target contention point for the next mutation.
// With prioritize set, it targets the point with the smallest non-zero best
// interval — the point closest to (but not yet at) triggering — and picks
// uniformly among seeds achieving that best (§6.2.1 ②). Without it, the
// seed is uniform random and the target is any point the seed observed.
func (c *Corpus) Select(rng *rand.Rand, prioritize bool) (*Seed, int) {
	if len(c.seeds) == 0 {
		return nil, -1
	}
	if !prioritize {
		s := c.seeds[rng.Intn(len(c.seeds))]
		return s, anyPoint(rng, s.Intvls)
	}
	// Rank points by interval; points with smaller non-zero best intervals
	// are "more likely to be selected as targets" (§6.2.1) — rank-weighted
	// sampling rather than a deterministic argmin, so the campaign does not
	// tunnel forever on a point whose interval cannot reach zero. Only the
	// first len(top) ranks can be drawn, so the smallest (v, id) candidates
	// are kept by insertion; the order is total, so map order has no say.
	var top [16]rankedPoint
	n, kept := 0, 0
	for id, v := range c.best { //sonar:nondeterministic-ok kept candidates are ordered by (v, id)
		if v == 0 {
			continue // already triggered; approaching it halts (paper §6.1)
		}
		n++
		p := rankedPoint{id, v}
		if kept < len(top) {
			kept++
		} else if !p.less(top[kept-1]) {
			continue
		}
		i := kept - 1
		for ; i > 0 && p.less(top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = p
	}
	if n == 0 {
		s := c.seeds[rng.Intn(len(c.seeds))]
		return s, anyPoint(rng, s.Intvls)
	}
	// Geometric rank weighting: each rank is taken with probability 2/3,
	// so rank 0 is twice as likely as rank 1, capped at the first 16 ranks.
	r := 0
	for r < n-1 && r < len(top)-1 && rng.Intn(3) == 0 {
		r++
	}
	target, bestV := top[r].id, top[r].v
	// Among seeds achieving the best interval at the target, pick randomly.
	// One walk records the matching seeds' indices; only when more match
	// than the buffer holds does a second walk index the chosen one.
	var hits [selectHits]int32
	matches := 0
	for i, s := range c.seeds {
		if v, ok := s.Intvls[target]; ok && v == bestV {
			if matches < len(hits) {
				hits[matches] = int32(i)
			}
			matches++
		}
	}
	if matches == 0 {
		return c.seeds[rng.Intn(len(c.seeds))], target
	}
	k := rng.Intn(matches)
	if k < len(hits) {
		return c.seeds[hits[k]], target
	}
	for _, s := range c.seeds {
		if v, ok := s.Intvls[target]; ok && v == bestV {
			if k == 0 {
				return s, target
			}
			k--
		}
	}
	panic("unreachable")
}

// selectHits bounds the tied seeds Select indexes without a second walk.
// Many seeds often tie at a target's best interval, so it covers a corpus
// of a few hundred seeds whole.
const selectHits = 512

// rankedPoint is a Select candidate: a point and its best interval.
type rankedPoint struct {
	id int
	v  int64
}

func (p rankedPoint) less(q rankedPoint) bool {
	return p.v < q.v || p.v == q.v && p.id < q.id
}

func anyPoint(rng *rand.Rand, intvls map[int]int64) int {
	if len(intvls) == 0 {
		return -1
	}
	// Index sorted keys rather than Go's randomized map order, so equal
	// seeds give equal campaigns (the determinism contract of
	// RunParallelExec).
	ids := make([]int, 0, len(intvls))
	for id := range intvls { //sonar:nondeterministic-ok keys collected then sorted
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids[rng.Intn(len(ids))]
}
