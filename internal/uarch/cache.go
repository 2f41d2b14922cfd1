package uarch

import "sonar/internal/hdl"

// cacheLine is one way of one set.
type cacheLine struct {
	tag   uint64
	valid bool
	dirty bool
	// fillReady is the cycle the line's data actually arrives; hits before
	// then wait for the in-flight refill (secondary-miss merging).
	fillReady int64
	lastUse   int64
}

// mshr is a miss-status holding register tracking one outstanding miss.
type mshr struct {
	set     int
	tag     uint64
	readyAt int64 // cycle the refill completes; busy while now < readyAt
}

func (m *mshr) busyAt(now int64) bool { return m.readyAt > now }

// lineBuffer is a single-ported staging buffer between the cache and the
// bus. Two same-cycle accesses serialize, delaying one by a cycle — side
// channels S6 (read) and S7 (write).
type lineBuffer struct {
	nextFree int64
	pulser   *Pulser
	ports    []Port
}

func newLineBuffer(mod *hdl.Module, pulser *Pulser, name string, ports int) *lineBuffer {
	lb := &lineBuffer{pulser: pulser}
	inputs := make([]*hdl.Signal, ports)
	for i := range inputs {
		v := mod.Wire(portName(name, i)+"_valid", 1)
		inputs[i] = mod.Wire(portName(name, i)+"_bits_addr", 64)
		lb.ports = append(lb.ports, pulser.Port(v, inputs[i]))
	}
	if ports >= 2 {
		sels := make([]*hdl.Signal, ports-1)
		for i := range sels {
			sels[i] = mod.Wire(name+"_grant_"+digits(i), 1)
		}
		mod.MuxTree(name+"_data", sels, inputs)
	}
	return lb
}

// access requests the buffer at cycle `at` through the given port and
// returns the cycle the access is serviced.
func (lb *lineBuffer) access(port int, addr uint64, at int64) int64 {
	lb.pulser.At(at, lb.ports[port], addr)
	t := at
	if t < lb.nextFree {
		t = lb.nextFree
	}
	lb.nextFree = t + 1
	return t
}

func (lb *lineBuffer) reset() { lb.nextFree = 0 }

// AccessResult describes the outcome of a cache access.
type AccessResult struct {
	// Ready is the cycle the data is available (loads) or the access has
	// completed its cache effects (stores).
	Ready int64
	// Hit reports an L1 tag hit.
	Hit bool
	// BlockedByMSHR reports the S5 false-sharing path blocking: the miss
	// had to wait for an in-flight MSHR with the same set index but a
	// different tag, even though MSHRs were available.
	BlockedByMSHR bool
	// Evicted reports that the refill evicted a valid line.
	Evicted bool
	// EvictedDirty reports that the victim needed a writeback.
	EvictedDirty bool
	// EvictedAddr is the line address of the victim.
	EvictedAddr uint64
}

// Cache is an L1 cache (instruction or data) with MSHRs, optional line
// buffers, and an optional shared single port (NutShell ICache, S14). Tags
// update at access time; data arrival is tracked per line via fillReady, so
// a younger instruction's miss lets an older same-line access hit but not
// before the data actually arrives.
type Cache struct {
	name    string
	sets    int
	ways    int
	hitLat  int
	l2Lat   int
	lines   []cacheLine // sets*ways, row-major
	mshrs   []mshr
	bus     *DChannel
	readSrc int // D-channel source index for refill reads
	wbSrc   int // D-channel source index for writebacks
	pulser  *Pulser

	// filled lists the sets a line was installed in since the last Reset,
	// in first-fill order, and isFilled marks them; every other set's lines
	// are all zero.
	filled   []int32
	isFilled []bool

	singlePort bool
	// portResv holds future cycles reserved by refill writes on the single
	// shared port; fetch reads landing on them are delayed (S14).
	portResv map[int64]bool

	readLB  *lineBuffer // nil unless Config.LineBuffers
	writeLB *lineBuffer

	// Netlist request ports: one per access port (0 = load/fetch,
	// 1 = store/refill-write).
	ports []Port
	// Per-bank arbitration points between the pipe access port and the
	// refill-write port. A pipe access landing on the same bank in the
	// same cycle as a refill write is a strict-timing volatile contention —
	// the class of contention interval-guided fuzzing is built to reach.
	bankPipe, bankRefill []Port
	// MSHR allocation point: pri vs sec requests.
	mshrPri, mshrSec Port

	// Stats for reports.
	Hits, Misses, Writebacks, SecAttaches, FalseSharingBlocks int
}

// CacheParams configures NewCache.
type CacheParams struct {
	Name        string    // component name used for signal prefixes
	Sets, Ways  int       // geometry: number of sets and ways
	HitLatency  int       // cycles for a hit to return data
	L2Latency   int       // cycles for a miss to refill from L2
	Bus         *DChannel // shared D-channel misses and writebacks ride on
	ReadSrc     int       // D-channel source id for refill reads
	WBSrc       int       // D-channel source id for writebacks
	NumMSHRs    int       // miss-status holding registers (0 = blocking)
	LineBuffers bool      // elaborate line-fill buffer contention points
	SinglePort  bool      // single-ported data array (port contention)
	Ports       int       // number of access ports to elaborate (>= 2 for a point)
	Banks       int       // data-array banks (0 disables banked points)
}

// NewCache elaborates a cache under mod and returns its model.
func NewCache(mod *hdl.Module, pulser *Pulser, p CacheParams) *Cache {
	c := &Cache{
		name:       p.Name,
		sets:       p.Sets,
		ways:       p.Ways,
		hitLat:     p.HitLatency,
		l2Lat:      p.L2Latency,
		lines:      make([]cacheLine, p.Sets*p.Ways),
		isFilled:   make([]bool, p.Sets),
		mshrs:      make([]mshr, p.NumMSHRs),
		bus:        p.Bus,
		readSrc:    p.ReadSrc,
		wbSrc:      p.WBSrc,
		pulser:     pulser,
		singlePort: p.SinglePort,
		portResv:   make(map[int64]bool),
	}
	ports := p.Ports
	if ports < 2 {
		ports = 2
	}
	inputs := make([]*hdl.Signal, ports)
	for i := 0; i < ports; i++ {
		v := mod.Wire(portName("io_port", i)+"_valid", 1)
		inputs[i] = mod.Wire(portName("io_port", i)+"_bits_addr", 64)
		c.ports = append(c.ports, pulser.Port(v, inputs[i]))
	}
	sels := make([]*hdl.Signal, ports-1)
	for i := range sels {
		sels[i] = mod.Wire("port_grant_"+digits(i), 1)
	}
	mod.MuxTree("array_access", sels, inputs)

	if p.NumMSHRs > 0 {
		priValid := mod.Wire("io_mshr_pri_valid", 1)
		priAddr := mod.Wire("io_mshr_pri_bits_addr", 64)
		secValid := mod.Wire("io_mshr_sec_valid", 1)
		secAddr := mod.Wire("io_mshr_sec_bits_addr", 64)
		c.mshrPri = pulser.Port(priValid, priAddr)
		c.mshrSec = pulser.Port(secValid, secAddr)
		sel := mod.Wire("mshr_mode_sel", 1)
		mod.Mux("mshr_req", sel, priAddr, secAddr)
	}
	if p.LineBuffers {
		lbPorts := p.NumMSHRs
		if lbPorts < 2 {
			lbPorts = 2
		}
		// One extra read-LB port serves pipeline reads of in-flight refill
		// data (hit-under-fill): those reads contend with refill writes,
		// the simultaneous-access scenario of side channel S6.
		c.readLB = newLineBuffer(mod.Child("rlb"), pulser, "io_refill", lbPorts+1)
		c.writeLB = newLineBuffer(mod.Child("wlb"), pulser, "io_evict", lbPorts)
	}
	for b := 0; b < p.Banks; b++ {
		bank := mod.Child("bank" + digits(b))
		pv := bank.Wire("io_pipe_valid", 1)
		pa := bank.Wire("io_pipe_bits_addr", 64)
		rv := bank.Wire("io_fill_valid", 1)
		ra := bank.Wire("io_fill_bits_addr", 64)
		sel := bank.Wire("gnt_pipe", 1)
		bank.MuxInto(bank.Wire("rdata", 64), sel, pa, ra)
		c.bankPipe = append(c.bankPipe, pulser.Port(pv, pa))
		c.bankRefill = append(c.bankRefill, pulser.Port(rv, ra))
	}
	return c
}

// bankOf maps an address to a data-array bank (line-granular interleaving,
// so pipe accesses and refill writes of the same line meet at one bank).
func (c *Cache) bankOf(addr uint64) int {
	return int(addr/LineBytes) % len(c.bankPipe)
}

// Reset invalidates all lines and MSHRs between program runs. Only the
// sets filled since the last Reset are cleared.
//
//sonar:alloc-free
func (c *Cache) Reset() {
	c.clearFilled()
	for i := range c.mshrs {
		c.mshrs[i] = mshr{}
	}
	clear(c.portResv)
	if c.readLB != nil {
		c.readLB.reset()
	}
	if c.writeLB != nil {
		c.writeLB.reset()
	}
	c.Hits, c.Misses, c.Writebacks, c.SecAttaches, c.FalseSharingBlocks = 0, 0, 0, 0, 0
}

// clearFilled zeroes the lines of every filled set and empties the list.
func (c *Cache) clearFilled() {
	for _, set := range c.filled {
		clear(c.lines[int(set)*c.ways : int(set+1)*c.ways])
		c.isFilled[set] = false
	}
	c.filled = c.filled[:0]
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr / LineBytes }
func (c *Cache) setOf(addr uint64) int       { return int(c.lineAddr(addr)) % c.sets }
func (c *Cache) tagOf(addr uint64) uint64    { return c.lineAddr(addr) / uint64(c.sets) }

func (c *Cache) way(set, w int) *cacheLine { return &c.lines[set*c.ways+w] }

// Contains reports whether the line holding addr is present (for tests and
// attack PoCs that prime cache state).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.setOf(addr), c.tagOf(addr)
	for w := 0; w < c.ways; w++ {
		l := c.way(set, w)
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Access performs a cache access through the given port at cycle now.
// write marks the line dirty (stores; also store-conditional regardless of
// success — side channel S10).
func (c *Cache) Access(port int, addr uint64, write bool, now int64) AccessResult {
	c.pulser.At(now, c.ports[port], addr)
	if len(c.bankPipe) > 0 {
		c.pulser.At(now, c.bankPipe[c.bankOf(addr)], addr)
	}
	if c.singlePort {
		for c.portResv[now] {
			now++ // port occupied by a refill write this cycle (S14)
		}
	}
	set, tag := c.setOf(addr), c.tagOf(addr)
	for w := 0; w < c.ways; w++ {
		l := c.way(set, w)
		if l.valid && l.tag == tag {
			c.Hits++
			l.lastUse = now
			if write {
				l.dirty = true
			}
			ready := now + int64(c.hitLat)
			if l.fillReady > ready {
				ready = l.fillReady // wait for the in-flight refill
				if c.readLB != nil {
					// Hit-under-fill: the data is read from the read line
					// buffer, through its single port (S6).
					t := c.readLB.access(len(c.readLB.ports)-1, addr, l.fillReady-int64(c.hitLat))
					if t+int64(c.hitLat) > ready {
						ready = t + int64(c.hitLat)
					}
				}
			}
			return AccessResult{Ready: ready, Hit: true}
		}
	}
	return c.miss(addr, set, tag, write, now)
}

func (c *Cache) miss(addr uint64, set int, tag uint64, write bool, now int64) AccessResult {
	c.Misses++
	res := AccessResult{}
	start := now

	// MSHR handling (paper §8.4.B). A second miss to the same set first
	// attempts sec mode; reuse succeeds only when the tag also matches.
	if len(c.mshrs) > 0 {
		for i := range c.mshrs {
			m := &c.mshrs[i]
			if !m.busyAt(now) || m.set != set {
				continue
			}
			c.pulser.At(now, c.mshrSec, addr)
			if m.tag == tag {
				// Should not happen: a tag match would have hit above via
				// fillReady. Kept for robustness.
				c.SecAttaches++
				return AccessResult{Ready: m.readyAt + int64(c.hitLat), Hit: false}
			}
			// Same set index, different tag: sec reuse fails and the new
			// request must wait for the in-flight MSHR even if others are
			// free — false sharing path blocking (S5).
			c.FalseSharingBlocks++
			res.BlockedByMSHR = true
			start = m.readyAt
			break
		}
		// Allocate in pri mode at start (possibly delayed further if all
		// MSHRs are busy then).
		mi := -1
		var earliest int64 = 1 << 62
		for i := range c.mshrs {
			if !c.mshrs[i].busyAt(start) {
				mi = i
				break
			}
			if c.mshrs[i].readyAt < earliest {
				earliest = c.mshrs[i].readyAt
			}
		}
		if mi == -1 {
			start = earliest
			for i := range c.mshrs {
				if !c.mshrs[i].busyAt(start) {
					mi = i
					break
				}
			}
		}
		c.pulser.At(start, c.mshrPri, addr)
		done := c.refill(addr, set, tag, write, start, mi, &res)
		c.mshrs[mi] = mshr{set: set, tag: tag, readyAt: done}
		res.Ready = done
		return res
	}
	// No MSHRs (blocking cache): refill directly.
	res.Ready = c.refill(addr, set, tag, write, start, 0, &res)
	return res
}

// refill fetches the line over the D-channel, stages it through the read
// line buffer, evicts a victim (through the write line buffer and a
// writeback transfer if dirty), and installs the new line. It returns the
// cycle the data is available.
func (c *Cache) refill(addr uint64, set int, tag uint64, write bool, start int64, lbPort int, res *AccessResult) int64 {
	done := c.bus.RequestRead(c.readSrc, c.lineAddr(addr), start+int64(c.l2Lat))
	if c.readLB != nil {
		done = c.readLB.access(lbPort, addr, done) + 1
	}
	// Victim selection: invalid way, else LRU.
	victim := -1
	for w := 0; w < c.ways; w++ {
		if !c.way(set, w).valid {
			victim = w
			break
		}
	}
	if victim == -1 {
		victim = 0
		for w := 1; w < c.ways; w++ {
			if c.way(set, w).lastUse < c.way(set, victim).lastUse {
				victim = w
			}
		}
		v := c.way(set, victim)
		res.Evicted = true
		res.EvictedAddr = (v.tag*uint64(c.sets) + uint64(set)) * LineBytes
		if v.dirty {
			res.EvictedDirty = true
			c.Writebacks++
			wbAt := done
			if c.writeLB != nil {
				wbAt = c.writeLB.access(lbPort, res.EvictedAddr, done) + 1
			}
			c.bus.RequestWrite(c.wbSrc, res.EvictedAddr/LineBytes, wbAt)
			// The dirty victim must drain into the write line buffer before
			// the refill data can be written into its way, so the evicting
			// access pays for the writeback (side channel S10).
			done = wbAt + 1
		}
	}
	if c.singlePort {
		// The refill write streams the line into the array, occupying the
		// shared port for several cycles (S14).
		for i := int64(0); i < 4; i++ {
			c.portResv[done+i] = true
		}
		c.pulser.At(done, c.ports[len(c.ports)-1], addr)
	}
	if len(c.bankRefill) > 0 {
		c.pulser.At(done, c.bankRefill[c.bankOf(addr)], addr)
	}
	if !c.isFilled[set] {
		c.isFilled[set] = true
		c.filled = append(c.filled, int32(set))
	}
	*c.way(set, victim) = cacheLine{tag: tag, valid: true, dirty: write, fillReady: done, lastUse: done}
	return done + int64(c.hitLat)
}

func portName(base string, i int) string { return base + "_" + digits(i) }

func digits(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}
