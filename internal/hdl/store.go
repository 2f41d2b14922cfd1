package hdl

import (
	"hash/maphash"
	"strings"
)

// This file holds how a netlist stores what elaboration builds. A
// paper-scale design has hundreds of thousands of signals, muxes and names
// that stay live as long as the netlist, and every garbage collection marks
// them: allocated one object each, they would make the collector's cycle
// follow the design's size. Instead, records come from chunked slabs,
// names from a shared arena and name lookup from a pointer-free table, so
// the netlist is a few hundred large objects whatever its size.

// slab hands out T records from chunks that never move, so a record's
// address is a stable handle. A new chunk holds half as many records as
// were handed out before it (between slabMin and slabMax), so a small
// netlist wastes little on a chunk's unused tail and a large one allocates
// few chunks.
type slab[T any] struct {
	free []T // the current chunk's unused records
	n    int // records handed out
}

const (
	slabMin = 32
	slabMax = 4096
)

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

// nameArena stores hierarchical names as substrings of shared chunks: a
// name costs no object of its own. A chunk is a strings.Builder grown once
// to its full size, so writing within its capacity never moves the bytes
// earlier names point into.
type nameArena struct {
	chunk strings.Builder
	used  int // bytes stored in all chunks
}

const (
	nameChunkMin = 512
	nameChunkMax = 64 << 10
)

// join stores path.name ("name" alone for an empty path) and returns it.
func (a *nameArena) join(path, name string) string {
	size := len(name)
	if path != "" {
		size += len(path) + 1
	}
	if a.chunk.Cap()-a.chunk.Len() < size {
		a.chunk = strings.Builder{}
		a.chunk.Grow(max(size, min(max(a.used/2, nameChunkMin), nameChunkMax)))
	}
	start := a.chunk.Len()
	if path != "" {
		a.chunk.WriteString(path)
		a.chunk.WriteByte('.')
	}
	a.chunk.WriteString(name)
	a.used += size
	return a.chunk.String()[start:]
}

// nameIndex finds signals by hierarchical name: an open-addressed hash
// table of signal ids, probed linearly and kept at most half full. It
// holds no pointer, so the collector never scans it.
type nameIndex struct {
	seed  maphash.Seed
	slots []int32 // 1 + a signal id, or 0 for an empty slot; len is a power of two
	n     int     // ids stored
}

// find returns the id of the signal named name among sigs, or -1 with the
// slot where it would go.
func (x *nameIndex) find(sigs []*Signal, name string) (id int32, slot int) {
	if len(x.slots) == 0 {
		return -1, -1
	}
	mask := len(x.slots) - 1
	for i := int(maphash.String(x.seed, name)) & mask; ; i = (i + 1) & mask {
		e := x.slots[i]
		if e == 0 {
			return -1, i
		}
		if sigs[e-1].name == name {
			return e - 1, i
		}
	}
}

// insert stores id, the signal named name among sigs, at slot, which find
// returned for name.
func (x *nameIndex) insert(sigs []*Signal, name string, id int32, slot int) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow(sigs)
		_, slot = x.find(sigs, name)
	}
	x.slots[slot] = id + 1
	x.n++
}

// grow doubles the table and rehashes every stored id.
func (x *nameIndex) grow(sigs []*Signal) {
	old := x.slots
	if len(old) == 0 {
		x.seed = maphash.MakeSeed()
	}
	x.slots = make([]int32, max(2*len(old), 64))
	mask := len(x.slots) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int(maphash.String(x.seed, sigs[e-1].name)) & mask
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = e
	}
}

// srcEdge is one declared fan-in edge (signal id, source id) of a signal
// whose fan-in outgrew the linear duplicate scan (see Signal.AddSource).
type srcEdge struct{ sig, src int32 }

// watchHook is one watch hook on one signal: an entry of the chain that
// starts at the signal's watch field, or of the netlist's free list.
type watchHook struct {
	fn   WatchFunc
	next int32 // 1 + the index of the next entry, or 0 at the chain's end
}
