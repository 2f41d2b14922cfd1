package uarch

import (
	"fmt"
	"testing"

	"sonar/internal/hdl"
	"sonar/internal/isa"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	m.Write(0x1000, 0xdeadbeefcafe, 8)
	if got := m.Read(0x1000, 8); got != 0xdeadbeefcafe {
		t.Errorf("Read = %#x", got)
	}
	if got := m.Read(0x1000, 4); got != 0xbeefcafe {
		t.Errorf("4-byte Read = %#x", got)
	}
	// Cross-page access: the low half lands in the page at 0x1000, the
	// high half in the one at 0x2000.
	m.Write(0x1ffc, 0x1122334455667788, 8)
	if got := m.Read(0x1ffc, 8); got != 0x1122334455667788 {
		t.Errorf("cross-page Read = %#x", got)
	}
	if got := m.Read(0x2000, 4); got != 0x11223344 {
		t.Errorf("high half in the next page = %#x", got)
	}
	pages := len(m.pages)
	if m.Read(0x9000, 8) != 0 {
		t.Error("untouched memory not zero")
	}
	if len(m.pages) != pages {
		t.Errorf("reading an untouched page created one: %d pages, want %d", len(m.pages), pages)
	}
	m.SetPrivRange(0x8000, 0x9000)
	if !m.Privileged(0x8000) || m.Privileged(0x7fff) || m.Privileged(0x9000) {
		t.Error("Privileged range wrong")
	}
	m.Read(0x1000, 8) // make 0x1000 the cached page
	m.Reset()
	if m.Read(0x1000, 8) != 0 {
		t.Error("Reset did not clear the cached page")
	}
	if m.Read(0x1ffc, 8) != 0 {
		t.Error("Reset did not clear contents")
	}
	if !m.Privileged(0x8000) {
		t.Error("Reset dropped the privileged range")
	}
}

// A watch flags exactly the accesses overlapping its bytes, by every
// access path, including a write that spans pages and a byte-slice copy.
func TestMemoryWatch(t *testing.T) {
	m := NewMemory()
	for _, c := range []struct {
		name   string
		access func()
		hit    bool
	}{
		{"read below", func() { m.Read(0x1ff8, 8) }, false},
		{"read overlapping the first byte", func() { m.Read(0x1ff9, 8) }, true},
		{"read above", func() { m.Read(0x2008, 4) }, false},
		{"byte load of the last byte", func() { m.LoadByte(0x2007) }, true},
		{"write overlapping the last byte", func() { m.Write(0x2007, 1, 2) }, true},
		{"byte store just past", func() { m.StoreByte(0x2008, 1) }, false},
		{"page-spanning write", func() { m.Write(0x1ffc, 1, 8) }, true},
		{"byte-slice copy across it", func() { m.WriteBytes(0x1f00, make([]byte, 0x200)) }, true},
		{"byte-slice copy beside it", func() { m.WriteBytes(0x2008, make([]byte, 0x100)) }, false},
	} {
		m.Watch(0x2000, 8)
		c.access()
		if m.WatchHit() != c.hit {
			t.Errorf("%s: WatchHit() = %v, want %v", c.name, m.WatchHit(), c.hit)
		}
	}
}

func TestPulserScheduling(t *testing.T) {
	n := hdl.NewNetlist("t")
	v := n.Wire("v_valid", 1)
	d := n.Wire("v_bits", 8)
	var edges []int64
	v.Watch(func(_ *hdl.Signal, old, new uint64, cycle int64) {
		if old == 0 && new == 1 {
			edges = append(edges, cycle)
		}
	})
	p := NewPulser(n)
	pt := p.Port(v, d)
	p.Drain(0)
	p.At(0, pt, 1) // current cycle: fires immediately
	p.At(3, pt, 2) // future
	if len(edges) != 1 || edges[0] != 0 {
		t.Fatalf("immediate pulse edges = %v", edges)
	}
	for c := int64(1); c <= 3; c++ {
		n.Step()
		p.Drain(c)
	}
	if len(edges) != 2 || edges[1] != 3 {
		t.Fatalf("scheduled pulse edges = %v", edges)
	}
	if d.Value() != 2 {
		t.Errorf("data = %d, want 2", d.Value())
	}
	p.At(10, pt, 3)
	p.Reset()
	if p.PendingCycles() != 0 {
		t.Error("Reset left pending pulses")
	}

	t.Run("ring", testPulserRing)
}

// testPulserRing covers the ring's growth, same-cycle ordering, late
// scheduling and pending-cycle accounting.
func testPulserRing(t *testing.T) {
	n := hdl.NewNetlist("t")
	v := n.Wire("v_valid", 1)
	d := n.Wire("v_bits", 16)
	type edge struct {
		cycle int64
		data  uint64
	}
	var edges []edge
	v.Watch(func(_ *hdl.Signal, old, new uint64, cycle int64) {
		if old == 0 && new == 1 {
			edges = append(edges, edge{cycle, d.Value()})
		}
	})
	p := NewPulser(n)
	pt := p.Port(v, d)
	drainTo := func(c int64) {
		for n.Cycle() < c {
			n.Step()
			p.Drain(n.Cycle())
		}
	}
	p.Drain(0)

	// Several pulses in one cycle fire in At order; a pulse far beyond the
	// initial ring forces growth while they are still pending.
	p.At(5, pt, 1)
	p.At(5, pt, 2)
	p.At(7, pt, 3)
	far := int64(5 * initialRing)
	p.At(far, pt, 4)
	p.At(5, pt, 5)
	if got := p.PendingCycles(); got != 3 {
		t.Errorf("PendingCycles = %d, want 3", got)
	}
	drainTo(7)
	want := []edge{{5, 1}, {5, 2}, {5, 5}, {7, 3}}
	if fmt.Sprint(edges) != fmt.Sprint(want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	if got := p.PendingCycles(); got != 1 {
		t.Errorf("PendingCycles after draining to 7 = %d, want 1", got)
	}

	// A pulse for an already drained cycle fires at once.
	p.At(3, pt, 6)
	if last := edges[len(edges)-1]; last != (edge{7, 6}) {
		t.Errorf("late pulse = %v, want it at once at cycle 7", last)
	}
	drainTo(far)
	if last := edges[len(edges)-1]; last != (edge{far, 4}) {
		t.Errorf("far pulse = %v, want it at cycle %d", last, far)
	}
	if got := p.PendingCycles(); got != 0 {
		t.Errorf("PendingCycles after Drain = %d, want 0", got)
	}

	p.At(far+3, pt, 7)
	p.At(far+4, pt, 8)
	if got := p.PendingCycles(); got != 2 {
		t.Errorf("PendingCycles = %d, want 2", got)
	}
	p.Reset()
	if got := p.PendingCycles(); got != 0 {
		t.Errorf("PendingCycles after Reset = %d, want 0", got)
	}
	n.SetCycle(0)
	edges = edges[:0]
	p.Drain(0)
	drainTo(10)
	if len(edges) != 0 {
		t.Errorf("pulses survived Reset: %v", edges)
	}
}

func TestDChannelOccupancy(t *testing.T) {
	n := hdl.NewNetlist("t")
	p := NewPulser(n)
	p.Drain(0)
	d := NewDChannel(n.Module("tilelink"), p, 8, []string{"a", "b"})
	// A read at cycle 10 completes at 18 and occupies the channel.
	if done := d.RequestRead(0, 0x40, 10); done != 18 {
		t.Errorf("read done = %d, want 18", done)
	}
	if !d.BusyAt(17) || d.BusyAt(18) {
		t.Error("occupancy window wrong")
	}
	// A writeback arriving at 12 is delayed behind the read: grant 18,
	// done 19.
	if done := d.RequestWrite(1, 0x80, 12); done != 19 {
		t.Errorf("writeback done = %d, want 19", done)
	}
	// After the channel frees, a write takes one cycle.
	if done := d.RequestWrite(1, 0xc0, 30); done != 31 {
		t.Errorf("idle writeback done = %d, want 31", done)
	}
	if d.Grants[0] != 1 || d.Grants[1] != 2 {
		t.Errorf("Grants = %v", d.Grants)
	}
	d.Reset()
	if d.BusyAt(0) || d.Grants[0] != 0 {
		t.Error("Reset incomplete")
	}
}

func newTestCache(t *testing.T, mshrs int, lineBuffers bool) (*Cache, *DChannel) {
	t.Helper()
	n := hdl.NewNetlist("t")
	p := NewPulser(n)
	p.Drain(0)
	bus := NewDChannel(n.Module("tilelink"), p, 8, []string{"rd", "wb"})
	c := NewCache(n.Module("lsu").Child("dcache"), p, CacheParams{
		Name: "d", Sets: 4, Ways: 2, HitLatency: 2, L2Latency: 10,
		Bus: bus, ReadSrc: 0, WBSrc: 1, NumMSHRs: mshrs, LineBuffers: lineBuffers,
		Ports: 2,
	})
	return c, bus
}

func TestCacheHitAndMissLatency(t *testing.T) {
	c, _ := newTestCache(t, 2, false)
	// Cold miss at cycle 0: bus read arrives at 10 (L2 latency), grant 10,
	// done 18, ready 18+2=20.
	r := c.Access(0, 0x1000, false, 0)
	if r.Hit {
		t.Error("cold access hit")
	}
	if r.Ready != 20 {
		t.Errorf("miss ready = %d, want 20", r.Ready)
	}
	// Hit on the same line after the fill: hit latency 2.
	r2 := c.Access(0, 0x1008, false, 30)
	if !r2.Hit || r2.Ready != 32 {
		t.Errorf("hit = %v ready = %d, want hit at 32", r2.Hit, r2.Ready)
	}
	// A hit before the fill completes waits for the in-flight data.
	c.Reset()
	c.Access(0, 0x2000, false, 0)
	r3 := c.Access(0, 0x2008, false, 2)
	if !r3.Hit {
		t.Error("same-line access during refill should hit the allocated line")
	}
	if r3.Ready < 18 {
		t.Errorf("same-line access ready = %d, must wait for fill (>= 18)", r3.Ready)
	}
	// Counters were cleared by the mid-test Reset: one miss + one hit since.
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("Hits/Misses = %d/%d, want 1/1 after Reset", c.Hits, c.Misses)
	}
}

// S5: a miss to the same set with a different tag must wait for the
// in-flight MSHR even though another MSHR is free.
func TestMSHRFalseSharingBlocking(t *testing.T) {
	c, _ := newTestCache(t, 2, false)
	r0 := c.Access(0, 0x1000, false, 0) // set 0
	// 0x1000 line 0x40... setOf(0x1000): line=0x40, set=0x40%4=0. Same set,
	// different tag: line addr 0x1000 + 4 sets * 64 bytes = 0x1100.
	r1 := c.Access(0, 0x1100, false, 1)
	if !r1.BlockedByMSHR {
		t.Fatal("same-set different-tag miss not blocked")
	}
	if r1.Ready <= r0.Ready {
		t.Errorf("blocked miss ready %d must be after blocker %d", r1.Ready, r0.Ready)
	}
	if c.FalseSharingBlocks != 1 {
		t.Errorf("FalseSharingBlocks = %d", c.FalseSharingBlocks)
	}
	// A miss to a *different* set proceeds in parallel on the second MSHR
	// (only delayed by bus serialization, not by MSHR completion).
	c.Reset()
	ra := c.Access(0, 0x1000, false, 0) // set 0
	rb := c.Access(0, 0x1040, false, 1) // set 1
	if rb.BlockedByMSHR {
		t.Error("different-set miss wrongly blocked")
	}
	if rb.Ready >= ra.Ready+int64(10)+8 {
		t.Errorf("parallel miss ready = %d (blocker %d): appears serialized through MSHR", rb.Ready, ra.Ready)
	}
}

func TestCacheEvictionAndWriteback(t *testing.T) {
	c, bus := newTestCache(t, 2, false)
	// Fill both ways of set 0, dirtying the first.
	c.Access(1, 0x1000, true, 0)    // set 0, way 0, dirty
	c.Access(0, 0x1100, false, 100) // set 0, way 1
	// Third line in set 0 evicts the LRU (0x1000, dirty -> writeback).
	r := c.Access(0, 0x1200, false, 200)
	if !r.Evicted || !r.EvictedDirty {
		t.Fatalf("evicted=%v dirty=%v, want both", r.Evicted, r.EvictedDirty)
	}
	if r.EvictedAddr != 0x1000 {
		t.Errorf("EvictedAddr = %#x, want 0x1000", r.EvictedAddr)
	}
	if c.Writebacks != 1 {
		t.Errorf("Writebacks = %d", c.Writebacks)
	}
	if bus.Grants[1] != 1 {
		t.Errorf("writeback source grants = %d, want 1", bus.Grants[1])
	}
	if c.Contains(0x1000) {
		t.Error("evicted line still present")
	}
	if !c.Contains(0x1200) {
		t.Error("refilled line missing")
	}
}

// S6/S7: simultaneous line-buffer accesses serialize by one cycle.
func TestLineBufferContention(t *testing.T) {
	n := hdl.NewNetlist("t")
	p := NewPulser(n)
	p.Drain(0)
	lb := newLineBuffer(n.Module("lsu").Child("rlb"), p, "io_refill", 2)
	t0 := lb.access(0, 0x1000, 50)
	t1 := lb.access(1, 0x2000, 50)
	if t0 != 50 || t1 != 51 {
		t.Errorf("same-cycle accesses = %d,%d, want 50,51", t0, t1)
	}
	t2 := lb.access(0, 0x3000, 60)
	if t2 != 60 {
		t.Errorf("idle access = %d, want 60", t2)
	}
}

// ---- core-level tests ----

func testSoC(cfg Config) *SoC {
	return NewSoC(cfg, 1, nil, nil)
}

func runProgram(t *testing.T, s *SoC, code ...isa.Instr) []CommitRecord {
	t.Helper()
	code = append(code, isa.Instr{Op: isa.ECALL})
	log := s.RunProgram(isa.NewProgram(0x1000, code...))
	if !s.Cores[0].Halted() {
		t.Fatal("program did not halt")
	}
	return log
}

func TestCoreArithmetic(t *testing.T) {
	s := testSoC(BoomConfig())
	runProgram(t, s,
		isa.I(isa.ADDI, 1, 0, 6),
		isa.I(isa.ADDI, 2, 0, 7),
		isa.R(isa.MUL, 3, 1, 2),
		isa.R(isa.ADD, 4, 3, 1),
		isa.R(isa.SUB, 5, 4, 2),
		isa.R(isa.DIV, 6, 3, 2),
		isa.R(isa.XOR, 7, 1, 2),
	)
	c := s.Cores[0]
	want := map[uint8]uint64{3: 42, 4: 48, 5: 41, 6: 6, 7: 1}
	for r, v := range want {
		if got := c.Reg(r); got != v {
			t.Errorf("x%d = %d, want %d", r, got, v)
		}
	}
}

func TestCoreCommitOrderAndCycles(t *testing.T) {
	s := testSoC(BoomConfig())
	log := runProgram(t, s,
		isa.I(isa.ADDI, 1, 0, 1),
		isa.R(isa.DIV, 2, 1, 1),  // slow
		isa.I(isa.ADDI, 3, 0, 2), // fast, but must commit after the div
	)
	if len(log) != 4 { // 3 + ecall
		t.Fatalf("commit log has %d entries, want 4", len(log))
	}
	for i := 1; i < len(log); i++ {
		if log[i].Cycle < log[i-1].Cycle {
			t.Errorf("commit order violated: %v", log)
		}
	}
	if log[0].Idx != 0 || log[1].Idx != 1 || log[2].Idx != 2 {
		t.Errorf("commit indices = %d,%d,%d", log[0].Idx, log[1].Idx, log[2].Idx)
	}
	// The fast addi is delayed by the in-order commit behind the div.
	if log[2].Cycle != log[1].Cycle {
		// Committed同cycle or the cycle after is fine; just ensure it did
		// not commit before.
		if log[2].Cycle < log[1].Cycle {
			t.Error("younger instruction committed before older")
		}
	}
}

func TestCoreLoadStore(t *testing.T) {
	s := testSoC(BoomConfig())
	runProgram(t, s,
		isa.Instr{Op: isa.LUI, Rd: 1, Imm: 8}, // x1 = 0x8000
		isa.I(isa.ADDI, 2, 0, 1234),
		isa.Store(isa.SD, 2, 1, 0),
		isa.Load(isa.LD, 3, 1, 0),
		isa.Load(isa.LW, 4, 1, 0),
	)
	c := s.Cores[0]
	if c.Reg(3) != 1234 {
		t.Errorf("x3 = %d, want 1234", c.Reg(3))
	}
	if c.Reg(4) != 1234 {
		t.Errorf("x4 = %d, want 1234", c.Reg(4))
	}
}

func TestCoreBranchTaken(t *testing.T) {
	s := testSoC(BoomConfig())
	runProgram(t, s,
		isa.I(isa.ADDI, 1, 0, 5),
		isa.Branch(isa.BNE, 1, 0, 12), // skip the next two
		isa.I(isa.ADDI, 2, 0, 111),    // squashed
		isa.I(isa.ADDI, 3, 0, 222),    // squashed
		isa.I(isa.ADDI, 4, 0, 7),
	)
	c := s.Cores[0]
	if c.Reg(2) != 0 || c.Reg(3) != 0 {
		t.Errorf("squashed path committed: x2=%d x3=%d", c.Reg(2), c.Reg(3))
	}
	if c.Reg(4) != 7 {
		t.Errorf("branch target not executed: x4 = %d", c.Reg(4))
	}
}

func TestCoreBranchNotTaken(t *testing.T) {
	s := testSoC(BoomConfig())
	runProgram(t, s,
		isa.Branch(isa.BEQ, 1, 2, 12), // x1==x2==0: taken!
		isa.I(isa.ADDI, 5, 0, 1),
		isa.I(isa.ADDI, 6, 0, 1),
		isa.I(isa.ADDI, 7, 0, 9),
	)
	c := s.Cores[0]
	if c.Reg(5) != 0 || c.Reg(6) != 0 || c.Reg(7) != 9 {
		t.Errorf("x5=%d x6=%d x7=%d", c.Reg(5), c.Reg(6), c.Reg(7))
	}
	s2 := testSoC(BoomConfig())
	runProgram(t, s2,
		isa.I(isa.ADDI, 1, 0, 1),
		isa.Branch(isa.BEQ, 1, 0, 8), // not taken
		isa.I(isa.ADDI, 5, 0, 3),
	)
	if s2.Cores[0].Reg(5) != 3 {
		t.Errorf("fallthrough not executed: x5 = %d", s2.Cores[0].Reg(5))
	}
}

func TestCoreJAL(t *testing.T) {
	s := testSoC(BoomConfig())
	runProgram(t, s,
		isa.Instr{Op: isa.JAL, Rd: 1, Imm: 12}, // jump over two
		isa.I(isa.ADDI, 2, 0, 1),
		isa.I(isa.ADDI, 3, 0, 1),
		isa.I(isa.ADDI, 4, 0, 4),
	)
	c := s.Cores[0]
	if c.Reg(1) != 0x1004 {
		t.Errorf("link = %#x, want 0x1004", c.Reg(1))
	}
	if c.Reg(2) != 0 || c.Reg(3) != 0 || c.Reg(4) != 4 {
		t.Errorf("jump path wrong: x2=%d x3=%d x4=%d", c.Reg(2), c.Reg(3), c.Reg(4))
	}
}

func TestCoreRdcycleMonotonic(t *testing.T) {
	s := testSoC(BoomConfig())
	runProgram(t, s,
		isa.Instr{Op: isa.RDCYCLE, Rd: 1},
		isa.R(isa.DIV, 2, 1, 1),
		isa.R(isa.ADD, 3, 2, 0), // serialize behind the div
		isa.Instr{Op: isa.RDCYCLE, Rd: 4},
	)
	c := s.Cores[0]
	if c.Reg(4) <= c.Reg(1) {
		t.Errorf("rdcycle not monotonic: %d then %d", c.Reg(1), c.Reg(4))
	}
}

// Lazy exception handling (BOOM): the faulting load's dependents execute
// transiently; the flush happens at commit, and architectural state from
// the wrong path is discarded.
func TestCoreLazyExceptionTransientWindow(t *testing.T) {
	s := testSoC(BoomConfig())
	s.Mem.SetPrivRange(0x8000, 0x9000)
	prog := isa.NewProgram(0x1000,
		isa.Instr{Op: isa.LUI, Rd: 1, Imm: 8}, // x1 = 0x8000 (privileged)
		isa.Load(isa.LD, 2, 1, 0),             // faults
		isa.R(isa.ADD, 3, 2, 2),               // transient dependent
		isa.I(isa.ADDI, 4, 0, 99),             // transient
	)
	// Handler at 0x2000: set x5 and halt.
	handler := isa.NewProgram(0x2000,
		isa.I(isa.ADDI, 5, 0, 55),
		isa.Instr{Op: isa.ECALL},
	)
	s.Reset()
	s.Mem.Write(0x8000, 7, 8)
	s.Cores[0].LoadProgram(prog)
	s.Mem.WriteBytes(handler.Base, handler.Image())
	s.Cores[0].SetHandler(0x2000)
	s.Run()
	c := s.Cores[0]
	if !c.Halted() {
		t.Fatal("did not halt")
	}
	if c.Reg(5) != 55 {
		t.Errorf("handler did not run: x5 = %d", c.Reg(5))
	}
	if c.Reg(3) != 0 || c.Reg(4) != 0 {
		t.Errorf("transient state committed: x3=%d x4=%d", c.Reg(3), c.Reg(4))
	}
	// The faulting commit must be recorded with the exception flag.
	var sawFault bool
	for _, r := range c.CommitLog {
		if r.Exception {
			sawFault = true
		}
	}
	if !sawFault {
		t.Error("no exception commit recorded")
	}
}

// Early exception detection (NutShell): the flush happens at execute, so
// the handler still runs but the transient window is (nearly) absent.
func TestCoreEarlyExceptionDetect(t *testing.T) {
	s := testSoC(NutshellConfig())
	s.Mem.SetPrivRange(0x8000, 0x9000)
	prog := isa.NewProgram(0x1000,
		isa.Instr{Op: isa.LUI, Rd: 1, Imm: 8},
		isa.Load(isa.LD, 2, 1, 0), // faults, early flush
		isa.R(isa.ADD, 3, 2, 2),
	)
	handler := isa.NewProgram(0x2000,
		isa.I(isa.ADDI, 5, 0, 55),
		isa.Instr{Op: isa.ECALL},
	)
	s.Reset()
	s.Cores[0].LoadProgram(prog)
	s.Mem.WriteBytes(handler.Base, handler.Image())
	s.Cores[0].SetHandler(0x2000)
	s.Run()
	c := s.Cores[0]
	if c.Reg(5) != 55 {
		t.Errorf("handler did not run: x5 = %d", c.Reg(5))
	}
	if c.Reg(3) != 0 {
		t.Errorf("transient state committed: x3=%d", c.Reg(3))
	}
}

// S9/S13 shape: a younger divide whose operands are ready first occupies
// the non-pipelined divider and delays an older divide.
func TestDivOccupancyContention(t *testing.T) {
	run := func(withYoungerDiv bool) int64 {
		s := testSoC(BoomConfig())
		code := []isa.Instr{
			isa.I(isa.ADDI, 1, 0, 1),
			isa.I(isa.ADDI, 3, 0, 5),
			isa.I(isa.ADDI, 8, 0, 58),
			isa.R(isa.SLL, 3, 3, 8), // x3: huge dividend, ready early
		}
		// A long dependency chain delays the older div's operand past the
		// point where the whole program has been fetched, so the younger
		// div (ready immediately after dispatch) enters the non-pipelined
		// divider first and occupies it across the older div's issue.
		code = isa.AppendDepChain(code, 1, 40)
		code = append(code, isa.R(isa.DIV, 2, 1, 1)) // older div, late operands
		if withYoungerDiv {
			code = append(code, isa.R(isa.DIV, 4, 3, 3)) // younger div
		} else {
			code = append(code, isa.R(isa.ADD, 4, 3, 3))
		}
		log := runProgram(t, s, code...)
		// Find the older div's commit cycle.
		for _, r := range log {
			if r.Instr.Op == isa.DIV && r.Instr.Rd == 2 {
				return r.Cycle
			}
		}
		t.Fatal("older div not committed")
		return 0
	}
	without := run(false)
	with := run(true)
	if with <= without {
		t.Errorf("younger div did not delay older: with=%d without=%d", with, without)
	}
}

func TestSoCResetReproducibility(t *testing.T) {
	s := testSoC(BoomConfig())
	prog := []isa.Instr{
		isa.I(isa.ADDI, 1, 0, 100),
		isa.R(isa.MUL, 2, 1, 1),
		isa.Load(isa.LD, 3, 1, 0),
		isa.R(isa.DIV, 4, 2, 1),
	}
	log1 := runProgram(t, s, prog...)
	log2 := runProgram(t, s, prog...)
	if len(log1) != len(log2) {
		t.Fatalf("log lengths differ: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i].Cycle != log2[i].Cycle {
			t.Fatalf("run not reproducible at commit %d: %d vs %d", i, log1[i].Cycle, log2[i].Cycle)
		}
	}
}

func TestBulkArraysDriven(t *testing.T) {
	arrays := []ArraySpec{
		{Component: "rob", Name: "entries", Entries: 8, Fanin: 2, Width: 32, Role: RoleROB},
		{Component: "frontend", Name: "fb", Entries: 4, Fanin: 2, Width: 32, Role: RoleFetchBuf},
	}
	s := NewSoC(BoomConfig(), 1, arrays, nil)
	// Count rising edges on rob entry write valids.
	edges := 0
	for _, sig := range s.Net.Signals() {
		sig := sig
		if sig.Kind() == hdl.Wire && len(sig.Name()) > 4 && sig.Name()[:4] == "rob." {
			if l := sig.Local(); l == "io_w_0_valid" || l == "io_w_1_valid" {
				sig.Watch(func(_ *hdl.Signal, old, new uint64, _ int64) {
					if old == 0 && new == 1 {
						edges++
					}
				})
			}
		}
	}
	runProgram(t, s, isa.I(isa.ADDI, 1, 0, 1), isa.I(isa.ADDI, 2, 0, 2))
	if edges == 0 {
		t.Error("dispatch did not drive the ROB bulk array")
	}
}

func TestSoCDualCoreSharedBus(t *testing.T) {
	s := NewSoC(BoomConfig(), 2, nil, nil)
	s.Reset()
	// Both cores run load-heavy programs over the shared D-channel.
	p0 := isa.NewProgram(0x1000,
		isa.Instr{Op: isa.LUI, Rd: 1, Imm: 16},
		isa.Load(isa.LD, 2, 1, 0),
		isa.Load(isa.LD, 3, 1, 4096),
		isa.Instr{Op: isa.ECALL},
	)
	p1 := isa.NewProgram(0x3000,
		isa.Instr{Op: isa.LUI, Rd: 1, Imm: 32},
		isa.Load(isa.LD, 2, 1, 0),
		isa.Load(isa.LD, 3, 1, 4096),
		isa.Instr{Op: isa.ECALL},
	)
	s.Cores[0].LoadProgram(p0)
	s.Cores[1].LoadProgram(p1)
	s.Run()
	if !s.Cores[0].Halted() || !s.Cores[1].Halted() {
		t.Fatal("dual-core run did not halt")
	}
	// Both cores' icache+dcache miss traffic used the shared channel.
	c0 := s.Bus.Grants[0] + s.Bus.Grants[1] + s.Bus.Grants[2]
	c1 := s.Bus.Grants[3] + s.Bus.Grants[4] + s.Bus.Grants[5]
	if c0 == 0 || c1 == 0 {
		t.Errorf("bus grants per core = %d, %d: both must be non-zero", c0, c1)
	}
}

func TestConfigTables(t *testing.T) {
	b, n := BoomConfig(), NutshellConfig()
	if b.ROBEntries != 96 || b.FetchWidth != 8 || b.NumMSHRs != 2 {
		t.Errorf("BOOM config drifted from Table 1: %+v", b)
	}
	if n.ROBEntries != 32 || n.FetchWidth != 2 || !n.EarlyExceptionDetect {
		t.Errorf("NutShell config drifted from Table 1: %+v", n)
	}
	if b.PipelinedMul == false || n.PipelinedMul == true {
		t.Error("multiplier structure wrong (S13 needs shared MDU on NutShell only)")
	}
}

// Regression: an instruction that reads the register it also writes
// (x2 = x2 / x3) must forward from the older in-flight producer, not the
// committed register file.
func TestCoreReadModifyWriteForwarding(t *testing.T) {
	s := testSoC(BoomConfig())
	runProgram(t, s,
		isa.I(isa.ADDI, 2, 0, 100),
		isa.I(isa.ADDI, 3, 0, 5),
		isa.R(isa.DIV, 2, 2, 3),  // x2 = 100/5 = 20
		isa.R(isa.DIV, 2, 2, 3),  // x2 = 20/5 = 4
		isa.I(isa.ADDI, 2, 2, 1), // x2 = 5
	)
	if got := s.Cores[0].Reg(2); got != 5 {
		t.Errorf("x2 = %d, want 5", got)
	}
}

func TestPerfCounters(t *testing.T) {
	s := testSoC(BoomConfig())
	runProgram(t, s,
		isa.I(isa.ADDI, 1, 0, 5),
		isa.R(isa.MUL, 2, 1, 1),
		isa.R(isa.DIV, 3, 2, 1),
		isa.Load(isa.LD, 4, 1, 0),
		isa.Branch(isa.BNE, 1, 0, 8), // taken
		isa.I(isa.ADDI, 5, 0, 1),     // squashed
		isa.I(isa.ADDI, 6, 0, 2),
	)
	p := s.Cores[0].Perf()
	if p.Committed == 0 || p.Cycles == 0 {
		t.Fatalf("counters empty: %+v", p)
	}
	if p.IssuedMul != 1 || p.IssuedDiv != 1 || p.IssuedMem != 1 {
		t.Errorf("issue classes: mul=%d div=%d mem=%d", p.IssuedMul, p.IssuedDiv, p.IssuedMem)
	}
	if p.BranchFlushes != 1 {
		t.Errorf("BranchFlushes = %d, want 1", p.BranchFlushes)
	}
	if p.Squashed == 0 {
		t.Error("taken branch squashed nothing")
	}
	if p.Dispatched < p.Committed {
		t.Error("dispatched < committed")
	}
	if p.IPC() <= 0 || p.IPC() > float64(BoomConfig().CoreWidth) {
		t.Errorf("IPC = %.2f implausible", p.IPC())
	}
	if p.String() == "" {
		t.Error("empty report")
	}
	// Reset clears counters.
	s.Reset()
	if s.Cores[0].Perf().Committed != 0 {
		t.Error("Reset kept counters")
	}
}

// §8.6 mitigation: a coarse timer quantizes rdcycle results.
func TestTimerGranularityMitigation(t *testing.T) {
	cfg := BoomConfig()
	cfg.TimerGranularity = 64
	s := NewSoC(cfg, 1, nil, nil)
	runProgram(t, s,
		isa.Instr{Op: isa.RDCYCLE, Rd: 1},
		isa.R(isa.DIV, 2, 1, 1),
		isa.R(isa.ADD, 3, 2, 0),
		isa.Instr{Op: isa.RDCYCLE, Rd: 4},
	)
	c := s.Cores[0]
	if c.Reg(1)%64 != 0 || c.Reg(4)%64 != 0 {
		t.Errorf("rdcycle not quantized: %d, %d", c.Reg(1), c.Reg(4))
	}
}

// §8.6 mitigation: per-requester D-channel lanes remove cross-requester
// contention while preserving same-lane serialization.
func TestPartitionedDChannel(t *testing.T) {
	n := hdl.NewNetlist("t")
	p := NewPulser(n)
	p.Drain(0)
	d := NewDChannel(n.Module("tilelink"), p, 8, []string{"a", "b"})
	d.SetPartitioned(true)
	// Cross-requester: b is NOT delayed behind a's read.
	if done := d.RequestRead(0, 1, 10); done != 18 {
		t.Fatalf("read done = %d", done)
	}
	if done := d.RequestWrite(1, 2, 12); done != 13 {
		t.Errorf("partitioned writeback done = %d, want 13 (no cross-lane wait)", done)
	}
	// Same-lane: a second read on lane 0 still queues.
	if done := d.RequestRead(0, 3, 12); done != 26 {
		t.Errorf("same-lane read done = %d, want 26", done)
	}
	d.Reset()
	if done := d.RequestRead(0, 1, 0); done != 8 {
		t.Errorf("post-reset read done = %d, want 8", done)
	}
}

// S14 mechanism: the single-ported ICache delays fetch reads landing on a
// refill write's occupancy window.
func TestSinglePortICacheReservation(t *testing.T) {
	n := hdl.NewNetlist("t")
	p := NewPulser(n)
	p.Drain(0)
	bus := NewDChannel(n.Module("tilelink"), p, 8, []string{"rd", "wb"})
	c := NewCache(n.Module("frontend").Child("icache"), p, CacheParams{
		Name: "i", Sets: 4, Ways: 2, HitLatency: 1, L2Latency: 10,
		Bus: bus, ReadSrc: 0, WBSrc: 0, SinglePort: true, Ports: 2,
	})
	r := c.Access(0, 0x1000, false, 0) // miss; refill write reserves the port
	refillAt := r.Ready - 1            // fill completes at ready-hitLat
	// A fetch read landing exactly on the refill write is pushed out.
	r2 := c.Access(0, 0x2000, false, refillAt)
	bus2 := NewDChannel(n.Module("tilelink2"), p, 8, []string{"rd", "wb"})
	plain := NewCache(n.Module("frontend").Child("icache2"), p, CacheParams{
		Name: "i2", Sets: 4, Ways: 2, HitLatency: 1, L2Latency: 10,
		Bus: bus2, ReadSrc: 0, WBSrc: 0, SinglePort: false, Ports: 2,
	})
	plain.Access(0, 0x1000, false, 0)
	r2p := plain.Access(0, 0x2000, false, refillAt)
	if r2.Ready <= r2p.Ready {
		t.Errorf("single-port access ready %d, dual-port %d: no port contention",
			r2.Ready, r2p.Ready)
	}
}

// S6 mechanism: a hit on a line whose refill is in flight goes through the
// read line buffer's single port.
func TestHitUnderFillUsesReadLineBuffer(t *testing.T) {
	c, _ := newTestCache(t, 2, true)
	c.Access(0, 0x1000, false, 0)      // refill in flight
	r := c.Access(0, 0x1008, false, 2) // same line, under fill
	if !r.Hit {
		t.Fatal("under-fill access did not hit")
	}
	// A second under-fill access in the same cycle serializes behind the
	// first on the line buffer port.
	r2 := c.Access(1, 0x1010, true, 2)
	if r2.Ready <= r.Ready {
		t.Errorf("simultaneous under-fill accesses not serialized: %d vs %d", r2.Ready, r.Ready)
	}
}

func TestCoreShiftExtensions(t *testing.T) {
	s := testSoC(BoomConfig())
	runProgram(t, s,
		isa.I(isa.ADDI, 1, 0, -8), // x1 = -8 (sign-extended)
		isa.I(isa.SRAI, 2, 1, 1),  // -4
		isa.I(isa.SRLI, 3, 1, 60), // logical: 0xF
		isa.I(isa.SLLI, 4, 1, 2),  // -32
		isa.R(isa.SLTU, 5, 0, 1),  // 0 < huge-unsigned = 1
		isa.I(isa.ADDI, 6, 0, 2),
		isa.R(isa.SRA, 7, 1, 6), // -8 >> 2 = -2
	)
	c := s.Cores[0]
	if got := int64(c.Reg(2)); got != -4 {
		t.Errorf("srai = %d, want -4", got)
	}
	if c.Reg(3) != 0xF {
		t.Errorf("srli = %#x, want 0xF", c.Reg(3))
	}
	if got := int64(c.Reg(4)); got != -32 {
		t.Errorf("slli = %d, want -32", got)
	}
	if c.Reg(5) != 1 {
		t.Errorf("sltu = %d, want 1", c.Reg(5))
	}
	if got := int64(c.Reg(7)); got != -2 {
		t.Errorf("sra = %d, want -2", got)
	}
}
