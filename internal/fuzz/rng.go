package fuzz

import (
	"math/rand"
	"sync"
)

// countedSource wraps a campaign RNG source with a draw counter, giving the
// durable campaign engine a serializable RNG position: a checkpoint stores
// the number of draws each worker has made, and resume reconstructs the
// exact generator state by replaying that many draws from the seed. The
// wrapper delegates Int63 and Uint64 unchanged (both advance the underlying
// generator by exactly one step), so a counted RNG produces the same draw
// sequence as rand.New(rand.NewSource(seed)) — attaching the counter never
// perturbs a campaign.
type countedSource struct {
	src  rand.Source64
	seed int64
	n    uint64
}

// newCountedSource returns a counted source for the given seed,
// fast-forwarded to the given cursor (number of draws already consumed).
func newCountedSource(seed int64, cursor uint64) *countedSource {
	// rand.NewSource's concrete type implements Source64; the assertion is
	// pinned by TestCountedSourceMatchesPlainSource.
	s := &countedSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}
	for i := uint64(0); i < cursor; i++ {
		s.src.Uint64()
	}
	s.n = cursor
	return s
}

// Int63 implements rand.Source.
func (s *countedSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *countedSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

// Seed implements rand.Source, resetting the cursor with the state.
func (s *countedSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.seed, s.n = seed, 0
}

// cursor returns the number of draws consumed so far — the value a
// checkpoint stores and newCountedSource replays.
func (s *countedSource) cursor() uint64 { return s.n }

// shardCache keeps shard workers between batches with their RNG source at
// the cursor their last batch left, keyed by seed, so a shard whose next
// batch starts there neither replays its generator from the seed — that
// replay is O(cursor), which makes rebuilding a shard for every batch
// quadratic in campaign length — nor builds its outcome slots and slabs
// again. A source's state is a function of its seed and cursor alone, so
// reusing one at an equal cursor is exact, and a request at any other
// cursor builds a new worker. The lease coordinator keeps one for its
// replays and a HeldCorpus one for its executor's leases. Safe for
// concurrent use: a taken worker leaves the cache until it is put back.
type shardCache struct {
	mu sync.Mutex
	ws map[int64]*worker
	// hits counts the takes that found their worker.
	hits int
}

// take removes and returns the cached worker for seed when its source sits
// at cursor, and nil otherwise (always, for a nil cache).
func (c *shardCache) take(seed int64, cursor uint64) *worker {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.ws[seed]
	if w == nil || w.src.n != cursor {
		return nil
	}
	delete(c.ws, seed)
	c.hits++
	return w
}

// put keeps w for the next take of its seed; a nil cache drops it.
func (c *shardCache) put(w *worker) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ws == nil {
		c.ws = make(map[int64]*worker)
	}
	c.ws[w.src.seed] = w
}
