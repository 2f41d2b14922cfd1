package fuzz

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"sonar/internal/monitor"
)

// PointIntvl is one entry of a feedback vector: a contention point and
// its minimum distinct-request interval. Interval feedback travels as one
// vector form everywhere — execution outcomes, seeds, the corpus best,
// checkpoints and the campaign-service wire — ascending strictly by Point,
// with no monitor.NoInterval entry, so it serializes byte-deterministically
// as is.
type PointIntvl struct {
	// Point is the contention point ID.
	Point int `json:"point"`
	// Intvl is the best (minimum) distinct-request interval observed.
	Intvl int64 `json:"intvl"`
}

// intvlAt returns the interval the vector s records for point, if any.
func intvlAt(s []PointIntvl, point int) (int64, bool) {
	i, ok := slices.BinarySearchFunc(s, point, func(e PointIntvl, p int) int { return cmp.Compare(e.Point, p) })
	if !ok {
		return 0, false
	}
	return s[i].Intvl, true
}

// foldMin returns the pointwise minimum of the vectors best and v and
// whether v lowered or added any point. Its probe and fold are one merge
// walk: entries are copied out only from v's first improvement on, into a
// fresh vector, so best itself is never written and may be shared freely.
// Without an improvement it returns best.
func foldMin(best, v []PointIntvl) ([]PointIntvl, bool) {
	i, j := 0, 0
	for ; j < len(v); j++ {
		for i < len(best) && best[i].Point < v[j].Point {
			i++
		}
		if i == len(best) || best[i].Point != v[j].Point || v[j].Intvl < best[i].Intvl {
			break
		}
	}
	if j == len(v) {
		return best, false
	}
	out := append(make([]PointIntvl, 0, len(best)+len(v)-j), best[:i]...)
	for i < len(best) || j < len(v) {
		switch {
		case j == len(v) || i < len(best) && best[i].Point < v[j].Point:
			out = append(out, best[i])
			i++
		case i == len(best) || v[j].Point < best[i].Point:
			out = append(out, v[j])
			j++
		default:
			out = append(out, PointIntvl{Point: v[j].Point, Intvl: min(best[i].Intvl, v[j].Intvl)})
			i++
			j++
		}
	}
	return out, true
}

// checkIntvls rejects a vector whose points do not ascend strictly or fall
// outside [0, points).
func checkIntvls(s []PointIntvl, points int) error {
	prev := -1
	for _, pi := range s {
		if pi.Point <= prev {
			return fmt.Errorf("interval point %d does not ascend past %d", pi.Point, prev)
		}
		prev = pi.Point
	}
	if prev >= points {
		return fmt.Errorf("interval point %d out of range [0, %d)", prev, points)
	}
	return nil
}

// Seed is a retained testcase with the feedback that earned its place.
type Seed struct {
	// TC is the retained testcase itself.
	TC *Testcase
	// Intvls is the feedback vector of the execution that retained this
	// seed: its per-point minimum distinct-request interval.
	Intvls []PointIntvl
	// Dir is the adaptive mutation direction: +1 grows the head chain,
	// -1 shrinks it (paper §6.2.1, interval-guided directed mutation).
	Dir int
	// Target is the contention point this seed was last mutated towards.
	Target int
}

// Corpus is the seed corpus with Sonar's retention and selection policies.
type Corpus struct {
	// seeds is the retained seeds in retention order. The list only grows
	// by appending, and views hold it capped at their length, so an append
	// on either side never writes an element the other reads.
	seeds []*Seed
	// best is the global minimum interval per contention point, a feedback
	// vector. A fold replaces it rather than writing it, so views and wire
	// forms share it without a copy.
	best []PointIntvl
}

// NewCorpus creates an empty corpus.
func NewCorpus() *Corpus {
	return &Corpus{best: []PointIntvl{}}
}

// Len returns the number of retained seeds.
func (c *Corpus) Len() int { return len(c.seeds) }

// view returns a copy-on-write alias of the corpus. Views are how the
// parallel coordinator distributes a merged corpus: O(1) per worker per
// round. The alias holds the seed list capped at its length, so its first
// retained seed appends into a private copy while the corpus appends past
// the view's end, and best is never written in place. Lingering views —
// including those held by abandoned retry goroutines — therefore stay
// safe without synchronization.
func (c *Corpus) view() *Corpus {
	return &Corpus{seeds: slices.Clip(c.seeds), best: c.best}
}

// Best returns the global minimum interval recorded for a point, or
// monitor.NoInterval.
func (c *Corpus) Best(point int) int64 {
	if v, ok := intvlAt(c.best, point); ok {
		return v
	}
	return monitor.NoInterval
}

// Offer applies the retention rule to s: the seed joins the corpus if its
// feedback vector reduced the minimum reqsIntvl at any contention point
// below the global best (paper §6.2.1 ①). It reports whether s was
// retained. The common rejecting path only reads. A retained seed is kept
// as is, so the caller must not write it, its testcase or its vector
// afterwards.
func (c *Corpus) Offer(s *Seed) bool {
	best, improved := foldMin(c.best, s.Intvls)
	if improved {
		c.admit(s, best)
	}
	return improved
}

// admit appends s, which improved the corpus best to best (foldMin).
func (c *Corpus) admit(s *Seed, best []PointIntvl) {
	c.best = best
	c.seeds = append(c.seeds, s)
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
	// are kept by insertion.
	var top [16]rankedPoint
	n, kept := 0, 0
	for _, pi := range c.best {
		if pi.Intvl == 0 {
			continue // already triggered; approaching it halts (paper §6.1)
		}
		n++
		p := rankedPoint{pi.Point, pi.Intvl}
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
		if v, ok := intvlAt(s.Intvls, target); ok && v == bestV {
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
		if v, ok := intvlAt(s.Intvls, target); ok && v == bestV {
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

// anyPoint draws any point of a seed's feedback vector, or -1 for an
// empty one.
func anyPoint(rng *rand.Rand, intvls []PointIntvl) int {
	if len(intvls) == 0 {
		return -1
	}
	return intvls[rng.Intn(len(intvls))].Point
}
