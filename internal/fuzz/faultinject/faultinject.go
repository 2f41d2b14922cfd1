// Package faultinject is a deterministic fault-injection harness for the
// parallel fuzzing engine: a Schedule makes specific workers panic or stall
// at specific (round, iteration) positions, exercising the engine's
// recovery paths — panic recovery, batch retry on rebuilt shard state, and
// per-iteration deadlines — under `go test -race`.
//
// A Schedule plugs into a campaign through fuzz.Options.FaultHook; it
// satisfies the fuzz.FaultHook interface structurally, so this package does
// not import (and cannot perturb) the engine it tests. Each fault fires
// exactly once by default: the retried batch passes over the same position
// without re-faulting, which is also how a real transient fault behaves.
// Repeat faults model permanently broken shards.
package faultinject

import (
	"fmt"
	"sync"
)

// Mode selects what a fault does to the worker goroutine.
type Mode int

const (
	// ModePanic makes the worker panic with a deterministic message.
	ModePanic Mode = iota
	// ModeStall blocks the worker until the Schedule's Release is called —
	// the wedged-simulation case a per-iteration deadline aborts.
	ModeStall
)

// String returns the mode's schedule-table name.
func (m Mode) String() string {
	switch m {
	case ModePanic:
		return "panic"
	case ModeStall:
		return "stall"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Fault schedules one injected fault at an exact campaign position.
type Fault struct {
	// Worker is the shard index the fault targets.
	Worker int
	// Round is the 1-based merge round the fault fires in.
	Round int
	// Iter is the 0-based iteration within the batch the fault fires
	// before.
	Iter int
	// Mode is what the fault does (panic or stall).
	Mode Mode
	// Repeat re-arms the fault after it fires, so every retry of the batch
	// faults again — the permanently-broken-shard case that drives the
	// engine's abandonment path. Default (false) is a transient fault:
	// fire once, let the retry succeed.
	Repeat bool
}

type position struct{ worker, round, iter int }

// Schedule is a set of scheduled faults; it implements fuzz.FaultHook.
// BeforeIteration is called concurrently from worker goroutines; the
// schedule serializes its own bookkeeping.
type Schedule struct {
	mu      sync.Mutex
	faults  map[position]Fault
	fired   int
	release chan struct{}
}

// NewSchedule builds a schedule from the given faults. Duplicate positions
// keep the last fault.
func NewSchedule(faults ...Fault) *Schedule {
	s := &Schedule{
		faults:  make(map[position]Fault, len(faults)),
		release: make(chan struct{}),
	}
	for _, f := range faults {
		s.faults[position{f.Worker, f.Round, f.Iter}] = f
	}
	return s
}

// BeforeIteration implements the engine's fault seam: it panics or stalls
// when a fault is scheduled at (worker, round, iter), and is a cheap no-op
// otherwise.
func (s *Schedule) BeforeIteration(worker, round, iter int) {
	s.mu.Lock()
	pos := position{worker, round, iter}
	f, ok := s.faults[pos]
	if ok {
		if !f.Repeat {
			delete(s.faults, pos)
		}
		s.fired++
	}
	release := s.release
	s.mu.Unlock()
	if !ok {
		return
	}
	switch f.Mode {
	case ModeStall:
		<-release
	default:
		panic(fmt.Sprintf("faultinject: scheduled panic (worker=%d round=%d iter=%d)", worker, round, iter))
	}
}

// Release unblocks every stalled (and future ModeStall) fault, so tests can
// drain leaked worker goroutines before finishing. Safe to call more than
// once.
func (s *Schedule) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.release:
	default:
		close(s.release)
	}
}

// Fired returns how many faults have fired so far.
func (s *Schedule) Fired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}
