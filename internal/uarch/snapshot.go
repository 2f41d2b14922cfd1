package uarch

// Snapshot is a copy of a SoC's run state at a cycle boundary: Restore
// puts the SoC back in exactly that state, so a run can resume from it.
// It covers every core (pipeline, registers, counters, commit log), the L1
// caches, the execution units, the D-channel, the Pulser's pending pulses,
// the written memory pages, and the clocks. Neither the netlist's value
// plane nor anything observing it is covered: a Pulser pulse leaves every
// valid at rest, and the monitor is its caller's to reset.
//
// Each part copies what the run touched since the last Reset (the ROB
// positions dispatch wrote, the cache sets filled, the pages written, the
// pending pulses), so a snapshot early in a run is cheap. Buffers are
// recycled: after warm-up, taking and restoring a snapshot allocate
// nothing.
type Snapshot struct {
	cycle  int64
	cores  []coreSnap
	caches []cacheSnap // per core: ICache, then DCache
	exec   []execSnap
	bus    busSnap
	pulser pulserSnap
	mem    memSnap
}

type coreSnap struct {
	st       coreState
	rob      []robEntry // the positions written since Reset
	waitq    []int
	fetchBuf []fetchedInstr
	pending  []fetchedInstr
	log      []CommitRecord
}

type cacheSnap struct {
	filled []int32
	lines  []cacheLine // the filled sets' lines, in filled order
	mshrs  []mshr
	resv   []int64
	// rlb and wlb are the line buffers' nextFree (0 without buffers).
	rlb, wlb int64
	stats    [5]int
}

type execSnap struct {
	divBusyUntil, mduBusyUntil int64
	mulIssued                  []cycleCount
	wbTaken                    []int64
}

type cycleCount struct {
	cycle int64
	n     int
}

type busSnap struct {
	freeAt   int64
	laneFree []int64
	grants   []int
	trace    []Transfer
}

type pulserSnap struct {
	drained int64
	slots   []pendingSlot
	pulses  []pulse // the slots' pulses, in slot order
}

// pendingSlot is one pending cycle's slot: its cycle and pulse count.
type pendingSlot struct {
	cycle int64
	n     int
}

type memSnap struct {
	pages []*memPage
	data  []byte // the pages' contents, pageBytes each
}

// Snapshot copies the SoC's run state into dst, reusing dst's buffers.
//
//sonar:alloc-free
func (s *SoC) Snapshot(dst *Snapshot) {
	if len(dst.cores) != len(s.Cores) {
		dst.cores = make([]coreSnap, len(s.Cores))     //sonar:alloc-ok first snapshot of this SoC shape
		dst.caches = make([]cacheSnap, 2*len(s.Cores)) //sonar:alloc-ok first snapshot of this SoC shape
		dst.exec = make([]execSnap, len(s.Cores))      //sonar:alloc-ok first snapshot of this SoC shape
	}
	dst.cycle = s.cycle
	for i, c := range s.Cores {
		c.snapshot(&dst.cores[i])
		c.ICache.snapshot(&dst.caches[2*i])
		c.DCache.snapshot(&dst.caches[2*i+1])
		c.Exec.snapshot(&dst.exec[i])
	}
	s.Bus.snapshot(&dst.bus)
	s.Pulser.snapshot(&dst.pulser)
	s.Mem.snapshot(&dst.mem)
}

// Restore puts the SoC back in the run state src was taken in. The
// program images are part of the restored memory, but each core's program
// index (LoadProgram's *isa.Program) is left as it is: the caller points
// every core at a program equal to the one it ran when the snapshot was
// taken, with SetProgram. The memory's privileged range and watch, and
// every core's window observer, are left alone too.
//
//sonar:alloc-free
func (s *SoC) Restore(src *Snapshot) {
	if len(src.cores) != len(s.Cores) {
		panic("uarch: Restore of a snapshot taken on another SoC shape")
	}
	s.cycle = src.cycle
	s.Net.SetCycle(src.cycle)
	for i, c := range s.Cores {
		c.restore(&src.cores[i])
		c.ICache.restore(&src.caches[2*i])
		c.DCache.restore(&src.caches[2*i+1])
		c.Exec.restore(&src.exec[i])
	}
	s.Bus.restore(&src.bus)
	s.Pulser.restore(&src.pulser)
	s.Mem.restore(&src.mem)
}

//sonar:alloc-free
func (c *Core) snapshot(s *coreSnap) {
	s.st = c.coreState
	s.rob = append(s.rob[:0], c.rob[:c.robWritten()]...)
	s.waitq = append(s.waitq[:0], c.waitq...)
	s.fetchBuf = append(s.fetchBuf[:0], c.fetchBuf...)
	s.pending = append(s.pending[:0], c.pending...)
	s.log = append(s.log[:0], c.CommitLog...)
}

// restore keeps the invariant Reset relies on: ROB positions past the
// restored seqNext's bound are zero.
//
//sonar:alloc-free
func (c *Core) restore(s *coreSnap) {
	if w := c.robWritten(); w > len(s.rob) {
		clear(c.rob[len(s.rob):w])
	}
	copy(c.rob, s.rob)
	c.coreState = s.st
	c.waitq = append(c.waitq[:0], s.waitq...)
	c.fetchBuf = append(c.fetchBuf[:0], s.fetchBuf...)
	c.pending = append(c.pending[:0], s.pending...)
	c.CommitLog = append(c.CommitLog[:0], s.log...)
}

//sonar:alloc-free
func (c *Cache) snapshot(s *cacheSnap) {
	s.filled = append(s.filled[:0], c.filled...)
	s.lines = s.lines[:0]
	for _, set := range c.filled {
		s.lines = append(s.lines, c.lines[int(set)*c.ways:int(set+1)*c.ways]...)
	}
	s.mshrs = append(s.mshrs[:0], c.mshrs...)
	s.resv = s.resv[:0]
	for cyc := range c.portResv { //sonar:nondeterministic-ok restore re-inserts into a map; order is irrelevant
		s.resv = append(s.resv, cyc)
	}
	s.rlb, s.wlb = 0, 0
	if c.readLB != nil {
		s.rlb = c.readLB.nextFree
	}
	if c.writeLB != nil {
		s.wlb = c.writeLB.nextFree
	}
	s.stats = [5]int{c.Hits, c.Misses, c.Writebacks, c.SecAttaches, c.FalseSharingBlocks}
}

//sonar:alloc-free
func (c *Cache) restore(s *cacheSnap) {
	c.clearFilled()
	for i, set := range s.filled {
		copy(c.lines[int(set)*c.ways:], s.lines[i*c.ways:(i+1)*c.ways])
		c.isFilled[set] = true
	}
	c.filled = append(c.filled[:0], s.filled...)
	copy(c.mshrs, s.mshrs)
	clear(c.portResv)
	for _, cyc := range s.resv {
		c.portResv[cyc] = true
	}
	if c.readLB != nil {
		c.readLB.nextFree = s.rlb
	}
	if c.writeLB != nil {
		c.writeLB.nextFree = s.wlb
	}
	c.Hits, c.Misses, c.Writebacks, c.SecAttaches, c.FalseSharingBlocks = s.stats[0], s.stats[1], s.stats[2], s.stats[3], s.stats[4]
}

//sonar:alloc-free
func (e *ExecUnits) snapshot(s *execSnap) {
	s.divBusyUntil, s.mduBusyUntil = e.divBusyUntil, e.mduBusyUntil
	s.mulIssued = s.mulIssued[:0]
	for cyc, n := range e.mulIssued { //sonar:nondeterministic-ok restore re-inserts into a map; order is irrelevant
		s.mulIssued = append(s.mulIssued, cycleCount{cycle: cyc, n: n})
	}
	s.wbTaken = s.wbTaken[:0]
	for cyc := range e.wbTaken { //sonar:nondeterministic-ok restore re-inserts into a map; order is irrelevant
		s.wbTaken = append(s.wbTaken, cyc)
	}
}

//sonar:alloc-free
func (e *ExecUnits) restore(s *execSnap) {
	e.Reset()
	e.divBusyUntil, e.mduBusyUntil = s.divBusyUntil, s.mduBusyUntil
	for _, m := range s.mulIssued {
		e.mulIssued[m.cycle] = m.n
	}
	for _, cyc := range s.wbTaken {
		e.wbTaken[cyc] = true
	}
}

//sonar:alloc-free
func (d *DChannel) snapshot(s *busSnap) {
	s.freeAt = d.freeAt
	s.laneFree = append(s.laneFree[:0], d.laneFree...)
	s.grants = append(s.grants[:0], d.Grants...)
	s.trace = append(s.trace[:0], d.Trace...)
}

//sonar:alloc-free
func (d *DChannel) restore(s *busSnap) {
	d.freeAt = s.freeAt
	copy(d.laneFree, s.laneFree)
	copy(d.Grants, s.grants)
	d.Trace = append(d.Trace[:0], s.trace...)
}

// snapshot copies the pending pulses slot by slot, oldest cycle first.
//
//sonar:alloc-free
func (p *Pulser) snapshot(s *pulserSnap) {
	s.drained = p.drained
	s.slots, s.pulses = s.slots[:0], s.pulses[:0]
	for c, left := p.drained+1, p.busy; left > 0; c++ {
		slot := p.ring[c&p.mask]
		if len(slot) == 0 {
			continue
		}
		s.slots = append(s.slots, pendingSlot{cycle: c, n: len(slot)})
		s.pulses = append(s.pulses, slot...)
		left--
	}
}

// restore refills the ring. The ring never shrinks, so every pending cycle
// of the snapshot still fits in the window after drained.
//
//sonar:alloc-free
func (p *Pulser) restore(s *pulserSnap) {
	p.Reset()
	p.drained = s.drained
	off := 0
	for _, sl := range s.slots {
		slot := &p.ring[sl.cycle&p.mask]
		*slot = append((*slot)[:0], s.pulses[off:off+sl.n]...)
		off += sl.n
	}
	p.busy = len(s.slots)
}

//sonar:alloc-free
func (m *Memory) snapshot(s *memSnap) {
	s.pages = append(s.pages[:0], m.written...)
	s.data = s.data[:0]
	for _, p := range m.written {
		s.data = append(s.data, p.data[:]...)
	}
}

// restore copies the pages back in place, so the page map and the
// last-page cache stay valid.
//
//sonar:alloc-free
func (m *Memory) restore(s *memSnap) {
	m.Reset()
	for i, p := range s.pages {
		copy(p.data[:], s.data[i*pageBytes:])
		p.written = true
	}
	m.written = append(m.written[:0], s.pages...)
}
