package fuzz

import (
	"sonar/internal/detect"
	"sonar/internal/isa"
)

// This file holds the ownership rule of a campaign's iteration data. Each
// outcome slot owns one testcase, one finding and one feedback vector for
// the whole campaign and rewrites them every round, so an iteration
// allocates nothing once the slots are warm. Nothing that outlives the
// round may point into a slot: what the campaign keeps — a retained seed's
// testcase and exact-size feedback vector, the testcase and finding Stats
// keeps — is copied out into chunked slabs, whose entries never move and
// are never written again.

// slab hands out copies of T lists from chunks that never move. A new chunk
// holds half as many records as were handed out before it (between slabMin
// and slabMax, or the list's length when that is larger), so a short
// campaign wastes little on a chunk's unused tail and a long one allocates
// few chunks.
type slab[T any] struct {
	free []T // the current chunk's unused records
	n    int // records handed out
}

const (
	slabMin = 32
	slabMax = 4096
)

// copyOf returns a copy of src in the slab, capped at its length so that
// an append to it can never write a neighbouring entry; an empty src
// copies to nil.
func (sl *slab[T]) copyOf(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if len(sl.free) < len(src) {
		sl.free = make([]T, max(len(src), min(max(sl.n/2, slabMin), slabMax)))
	}
	out := sl.free[:len(src):len(src)]
	copy(out, src)
	sl.free = sl.free[len(src):]
	sl.n += len(src)
	return out
}

// next returns a zeroed record.
func (sl *slab[T]) next() *T {
	if len(sl.free) == 0 {
		sl.free = make([]T, min(max(sl.n/2, slabMin), slabMax))
	}
	r := &sl.free[0]
	sl.free = sl.free[1:]
	sl.n++
	return r
}

// keeper copies what a campaign keeps out of outcome slots. A shard worker
// keeps its retained seeds in one and the stats fold its findings in
// another. Not safe for concurrent use.
type keeper struct {
	tcs      slab[Testcase]
	instrs   slab[isa.Instr]
	patterns slab[SecretPattern]
	intvls   slab[PointIntvl]
	seeds    slab[Seed]
	findings slab[detect.Finding]
	affected slab[detect.Affected]
	diffs    slab[detect.StateDiff]
}

// testcase returns a copy of tc that shares no storage with it.
func (k *keeper) testcase(tc *Testcase) *Testcase {
	c := k.tcs.next()
	*c = Testcase{
		HeadChain:   k.instrs.copyOf(tc.HeadChain),
		Prologue:    k.instrs.copyOf(tc.Prologue),
		Patterns:    k.patterns.copyOf(tc.Patterns),
		Epilogue:    k.instrs.copyOf(tc.Epilogue),
		Probe:       tc.Probe,
		ProbeOffset: tc.ProbeOffset,
		ProbeBase:   tc.ProbeBase,
		ProbeDelay:  tc.ProbeDelay,
		Attacker:    k.instrs.copyOf(tc.Attacker),
	}
	return c
}

// seed returns a seed of copies of tc and of the feedback vector intvls,
// the vector at its exact size.
func (k *keeper) seed(tc *Testcase, intvls []PointIntvl, dir, target int) *Seed {
	s := k.seeds.next()
	*s = Seed{TC: k.testcase(tc), Intvls: k.intvls.copyOf(intvls), Dir: dir, Target: target}
	return s
}

// finding returns a copy of f that shares no storage with it.
func (k *keeper) finding(f *detect.Finding) *detect.Finding {
	c := k.findings.next()
	*c = detect.Finding{Affected: k.affected.copyOf(f.Affected), StateDiffs: k.diffs.copyOf(f.StateDiffs)}
	return c
}
