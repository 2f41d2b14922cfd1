package uarch

import (
	"sonar/internal/hdl"
	"sonar/internal/isa"
)

// WindowObserver is notified when the secret-dependent monitoring window
// opens and closes (paper §6.1). *monitor.Monitor satisfies it.
type WindowObserver interface {
	SetWindow(open bool)
}

// CommitRecord is one committed instruction with its commit cycle — the raw
// material of the commit-cycle-difference analysis (paper §7.1).
type CommitRecord struct {
	// Idx is the static program index (-1 for instructions outside the
	// loaded program, e.g. decode padding).
	Idx int
	// PC is the instruction address.
	PC uint64
	// Cycle is the commit cycle.
	Cycle int64
	// Instr is the committed instruction.
	Instr isa.Instr
	// Exception marks a faulting commit.
	Exception bool
}

// rob entry states.
const (
	stWaiting = iota
	stIssued
)

type robEntry struct {
	active    bool
	seq       int64
	idx       int
	pc        uint64
	ins       isa.Instr
	state     uint8
	result    uint64
	doneAt    int64 // result available at the end of this cycle
	exception bool
	// earlyFlushed marks a fault already handled by early detection
	// (NutShell): commit must not flush again.
	earlyFlushed bool
	secretDep    bool
	// src1 and src2 are the producers of Rs1 and Rs2 captured at dispatch:
	// the newest in-flight writer of each register older than this entry.
	src1, src2 prodRef
}

type prodRef struct {
	pos int
	seq int64
}

type fetchedInstr struct {
	pc  uint64
	idx int
	ins isa.Instr
}

// Bulk bundles the structural arrays a core drives from pipeline activity.
// Any field may be nil.
type Bulk struct {
	ROB      *BulkArray // reorder buffer occupancy
	FetchBuf *BulkArray // fetch buffer occupancy
	IssueQ   *BulkArray // issue queue occupancy
	RegFile  *BulkArray // physical register file write ports
	BTB      *BulkArray // branch target buffer update ports
}

// Core is the cycle-accurate out-of-order core engine. It fetches through
// the L1 ICache, dispatches in order into the ROB, issues out of order to
// the execution units and the L1 DCache, and commits in order. Exceptions
// are detected at execute and handled lazily at commit (BOOM) or eagerly at
// detection (NutShell, Config.EarlyExceptionDetect), which controls the
// transient window Meltdown-style templates rely on (§7.3, §8.5).
type Core struct {
	Cfg    Config // elaboration-time configuration, immutable after NewCore
	ID     int    // core index within the SoC
	net    *hdl.Netlist
	pulser *Pulser
	mem    *Memory
	bus    *DChannel
	ICache *Cache     // private L1 instruction cache
	DCache *Cache     // private L1 data cache
	Exec   *ExecUnits // shared or private execution units
	bulk   Bulk

	prog *isa.Program
	// imgBuf is the scratch buffer LoadProgram renders program images into.
	imgBuf []byte
	window WindowObserver

	// coreState holds every scalar of the run state; the slices below
	// hold the rest. A Snapshot copies both.
	coreState

	rob []robEntry
	// waitq holds the ROB positions of the stWaiting entries in age order:
	// issue walks it instead of the whole ROB.
	waitq []int
	// fetchBuf is a head-indexed queue: entries [fbHead:] are live. Dispatch
	// consumes by advancing fbHead so the backing array keeps its capacity;
	// fetch compacts to [:0] whenever the queue drains.
	fetchBuf []fetchedInstr
	// pending is the in-flight fetch group, valid when hasPending.
	pending []fetchedInstr

	// CommitLog records every committed instruction in order.
	CommitLog []CommitRecord
}

// coreState is the scalar part of a core's run state: Reset zeroes it (the
// secret range aside), and a Snapshot copies it whole.
type coreState struct {
	secretStart int
	secretEnd   int
	handlerAddr uint64

	cycle    int64
	pc       uint64
	regs     [32]uint64
	robHead  int
	robTail  int
	robCount int
	// seqNext also bounds the ROB positions written since Reset: every
	// position at or past min(seqNext, len(rob)) is still zero.
	seqNext  int64
	lastProd [32]prodRef

	fbHead     int
	pendingAt  int64 // cycle the pending fetch group arrives
	hasPending bool

	redirectValid bool
	redirectPC    uint64
	redirectAt    int64

	ldqCount, stqCount int
	halted             bool
	secretInROB        int

	perf PerfCounters
}

// CoreParams bundles the shared SoC pieces a core plugs into.
type CoreParams struct {
	ID     int          // core index within the SoC
	Net    *hdl.Netlist // netlist the core's signals live in
	Pulser *Pulser      // contention pulser shared across cores
	Mem    *Memory      // backing memory model
	Bus    *DChannel    // shared TileLink D-channel
	ICache *Cache       // this core's L1 instruction cache
	DCache *Cache       // this core's L1 data cache
	Exec   *ExecUnits   // execution units (shared when SMT)
	Bulk   Bulk         // structural arrays driven by this core
}

// NewCore assembles a core from its parts.
func NewCore(cfg Config, p CoreParams) *Core {
	c := &Core{
		Cfg:    cfg,
		ID:     p.ID,
		net:    p.Net,
		pulser: p.Pulser,
		mem:    p.Mem,
		bus:    p.Bus,
		ICache: p.ICache,
		DCache: p.DCache,
		Exec:   p.Exec,
		bulk:   p.Bulk,
		rob:    make([]robEntry, cfg.ROBEntries),
		waitq:  make([]int, 0, cfg.ROBEntries),
	}
	c.clearProducers()
	return c
}

// SetWindowObserver attaches the monitoring-window sink.
func (c *Core) SetWindowObserver(w WindowObserver) { c.window = w }

// LoadProgram places the program image into memory and points fetch at it.
// The secret-dependent range is cleared; set it with SetSecretRange.
func (c *Core) LoadProgram(p *isa.Program) {
	c.prog = p
	c.imgBuf = p.AppendImage(c.imgBuf[:0])
	c.mem.WriteBytes(p.Base, c.imgBuf)
	c.pc = p.Base
	c.secretStart, c.secretEnd = -1, -1
}

// SetSecretRange marks program indices [start, end) as the secret-dependent
// region for monitoring-window purposes (paper §6.1).
func (c *Core) SetSecretRange(start, end int) {
	c.secretStart, c.secretEnd = start, end
}

// SetProgram points the core's program index at p without touching memory
// or the fetch PC: a core restored from a Snapshot continues under p, which
// must hold the program the snapshot was taken with.
func (c *Core) SetProgram(p *isa.Program) { c.prog = p }

// WindowObserver returns the attached monitoring-window sink.
func (c *Core) WindowObserver() WindowObserver { return c.window }

// SetHandler sets the exception handler address (0 halts on exception).
func (c *Core) SetHandler(addr uint64) { c.handlerAddr = addr }

// SetReg writes an architectural register directly (test and PoC setup).
func (c *Core) SetReg(r uint8, v uint64) {
	if r != 0 {
		c.regs[r] = v
	}
}

// Reg reads an architectural register.
func (c *Core) Reg(r uint8) uint64 { return c.regs[r] }

// Cycle returns the core's current cycle.
func (c *Core) Cycle() int64 { return c.cycle }

// Halted reports whether the core has committed its terminating ECALL or
// exceeded the cycle cap.
func (c *Core) Halted() bool { return c.halted || c.cycle >= c.Cfg.MaxCycles }

// Reset returns the core to its post-elaboration state. Caches, execution
// units, and the bus are reset by the owning SoC, not here, because they
// may be shared.
//
// The commit log is truncated in place, retaining its capacity: a caller
// that wants to keep the previous run's records (or hand the core a private
// buffer) must swap CommitLog itself before the next run, as DUT.Execute
// and SoC.RunProgram do.
func (c *Core) Reset() {
	clear(c.rob[:c.robWritten()])
	c.coreState = coreState{secretStart: -1, secretEnd: -1}
	c.clearProducers()
	c.waitq = c.waitq[:0]
	c.fetchBuf = c.fetchBuf[:0]
	c.CommitLog = c.CommitLog[:0]
	c.prog = nil
}

// robWritten bounds the ROB positions written since Reset: dispatch writes
// at robTail, which never runs ahead of seqNext.
func (c *Core) robWritten() int {
	return int(min(c.seqNext, int64(len(c.rob))))
}

func (c *Core) clearProducers() {
	for i := range c.lastProd {
		c.lastProd[i] = prodRef{pos: -1}
	}
}

// Step advances the core by one cycle. The caller drains the shared Pulser
// and steps the netlist clock once per cycle across all cores.
func (c *Core) Step() {
	if c.halted {
		c.cycle++
		return
	}
	c.applyRedirect()
	c.commit()
	c.issue()
	c.dispatch()
	c.fetch()
	c.cycle++
}

func (c *Core) applyRedirect() {
	if c.redirectValid && c.cycle >= c.redirectAt {
		c.pc = c.redirectPC
		c.redirectValid = false
		c.fetchBuf = c.fetchBuf[:0]
		c.fbHead = 0
		c.hasPending = false
	}
}

// ---- commit ----

func (c *Core) commit() {
	for n := 0; n < c.Cfg.CoreWidth && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if e.state != stIssued || e.doneAt >= c.cycle {
			return
		}
		c.CommitLog = append(c.CommitLog, CommitRecord{
			Idx: e.idx, PC: e.pc, Cycle: c.cycle, Instr: e.ins, Exception: e.exception,
		})
		c.perf.Committed++
		if e.exception {
			c.perf.Exceptions++
		}
		if rd := e.ins.Writes(); rd != 0 && !e.exception {
			c.regs[rd] = e.result
			if c.bulk.RegFile != nil {
				c.bulk.RegFile.Touch(int(rd), n, e.result, c.cycle)
			}
		}
		halt := e.ins.Op == isa.ECALL
		exceptionFlush := e.exception && !e.earlyFlushed
		c.popHead(e)
		if exceptionFlush {
			c.flushAllAfterHead()
			c.redirectToHandler()
			return
		}
		if halt {
			c.halted = true
			return
		}
	}
}

func (c *Core) popHead(e *robEntry) {
	c.releaseEntry(e)
	e.active = false
	c.robHead = (c.robHead + 1) % len(c.rob)
	c.robCount--
}

// releaseEntry updates LSQ and window accounting for an entry leaving the
// ROB by commit or squash.
func (c *Core) releaseEntry(e *robEntry) {
	if e.ins.Op.IsLoad() {
		c.ldqCount--
	}
	if e.ins.Op.IsStore() {
		c.stqCount--
	}
	if e.secretDep {
		c.secretInROB--
		if c.secretInROB == 0 && c.window != nil {
			c.window.SetWindow(false)
		}
	}
}

func (c *Core) redirectToHandler() {
	if c.handlerAddr == 0 {
		c.halted = true
		return
	}
	c.redirectValid = true
	c.redirectPC = c.handlerAddr
	c.redirectAt = c.cycle + 2
}

// flushAllAfterHead squashes every entry remaining in the ROB (called after
// the faulting head has been popped).
func (c *Core) flushAllAfterHead() {
	for c.robCount > 0 {
		e := &c.rob[c.robHead]
		c.perf.Squashed++
		c.releaseEntry(e)
		e.active = false
		c.robHead = (c.robHead + 1) % len(c.rob)
		c.robCount--
	}
	c.robTail = c.robHead
	c.waitq = c.waitq[:0]
	c.fetchBuf = c.fetchBuf[:0]
	c.fbHead = 0
	c.hasPending = false
	c.clearProducers()
}

// flushYoungerThan squashes all entries strictly younger than seq, trims
// them from the tail of the issue list, and rebuilds the producer table.
func (c *Core) flushYoungerThan(seq int64) {
	n := len(c.waitq)
	for n > 0 && c.rob[c.waitq[n-1]].seq > seq {
		n--
	}
	c.waitq = c.waitq[:n]
	for c.robCount > 0 {
		tailPos := (c.robTail - 1 + len(c.rob)) % len(c.rob)
		e := &c.rob[tailPos]
		if e.seq <= seq {
			break
		}
		c.perf.Squashed++
		c.releaseEntry(e)
		e.active = false
		c.robTail = tailPos
		c.robCount--
	}
	c.fetchBuf = c.fetchBuf[:0]
	c.fbHead = 0
	c.hasPending = false
	c.rebuildProducers()
}

func (c *Core) rebuildProducers() {
	c.clearProducers()
	for i, pos := 0, c.robHead; i < c.robCount; i++ {
		e := &c.rob[pos]
		if rd := e.ins.Writes(); rd != 0 {
			c.lastProd[rd] = prodRef{pos: pos, seq: e.seq}
		}
		pos = (pos + 1) % len(c.rob)
	}
}

// ---- issue ----

// operand resolves source register r through the producer ref captured at
// dispatch: ready reports whether the value is available this cycle. A ref
// whose slot no longer holds that producer means it has committed (a
// squashed producer takes its consumers with it), so the architectural
// register holds its value.
func (c *Core) operand(r uint8, ref prodRef) (val uint64, ready bool) {
	if r == 0 {
		return 0, true
	}
	if ref.pos >= 0 {
		if p := &c.rob[ref.pos]; p.active && p.seq == ref.seq {
			return producerValue(p, c.cycle)
		}
	}
	return c.regs[r], true
}

func producerValue(p *robEntry, cycle int64) (uint64, bool) {
	if p.state == stIssued && p.doneAt < cycle {
		return p.result, true
	}
	return 0, false
}

func (c *Core) issueWidth() int { return c.Cfg.NumALUs + 2 }

// issue walks the waiting entries oldest first and compacts the list in
// place: an entry stays when it is blocked, not ready, or refused by a
// unit. A taken branch, jump, or early exception flushes every younger
// entry, trimming the list to the entry being issued, which ends the walk.
func (c *Core) issue() {
	issued := 0
	aluUsed := 0
	mulUsed := false
	divUsed := 0
	memUsed := false
	seenUnissuedStore := false
	seenUnissuedMem := false

	keep, i := 0, 0
	for ; i < len(c.waitq) && issued < c.issueWidth(); i++ {
		pos := c.waitq[i]
		e := &c.rob[pos]
		blockedStore := e.ins.Op.IsLoad() && seenUnissuedStore
		blockedMem := e.ins.Op.IsStore() && seenUnissuedMem
		if e.ins.Op.IsStore() {
			seenUnissuedStore = true
		}
		if e.ins.Op.IsMem() {
			seenUnissuedMem = true
		}
		var rs1, rs2 uint64
		ready := !blockedStore && !blockedMem
		if ready && e.ins.Op.HasRs1() {
			rs1, ready = c.operand(e.ins.Rs1, e.src1)
		}
		if ready && e.ins.Op.HasRs2() {
			rs2, ready = c.operand(e.ins.Rs2, e.src2)
		}
		if ready && c.tryIssue(e, rs1, rs2, &aluUsed, &mulUsed, &divUsed, &memUsed) {
			issued++
			continue
		}
		c.waitq[keep] = pos
		keep++
	}
	c.waitq = c.waitq[:keep+copy(c.waitq[keep:], c.waitq[i:])]
}

// tryIssue attempts to start execution of e with resolved operands; it
// reports whether a unit accepted the instruction this cycle.
func (c *Core) tryIssue(e *robEntry, rs1, rs2 uint64, aluUsed *int, mulUsed *bool, divUsed *int, memUsed *bool) bool {
	op := e.ins.Op
	switch {
	case op.IsALU():
		if *aluUsed >= c.Cfg.NumALUs {
			return false
		}
		shared := *aluUsed == c.Cfg.NumALUs-1 && c.Cfg.NumALUs > 1
		*aluUsed++
		c.perf.IssuedALU++
		e.result = isa.Compute(e.ins, rs1, rs2)
		e.doneAt = c.Exec.ALUWriteback(shared, e.result, c.cycle+1)
	case op.IsMul():
		if *mulUsed {
			return false
		}
		*mulUsed = true
		c.perf.IssuedMul++
		e.result = isa.Compute(e.ins, rs1, rs2)
		e.doneAt = c.Exec.IssueMul(e.result, c.cycle)
	case op.IsDiv():
		if *divUsed >= 2 {
			return false
		}
		c.perf.IssuedDiv++
		e.result = isa.Compute(e.ins, rs1, rs2)
		e.doneAt = c.Exec.IssueDiv(*divUsed, rs1, c.cycle)
		*divUsed++
	case op.IsMem():
		if *memUsed {
			return false
		}
		*memUsed = true
		c.perf.IssuedMem++
		c.issueMem(e, rs1, rs2)
	case op.IsBranch():
		e.result = 0
		e.doneAt = c.cycle + 1
		taken := (op == isa.BEQ && rs1 == rs2) || (op == isa.BNE && rs1 != rs2)
		if taken {
			e.state = stIssued
			c.perf.BranchFlushes++
			c.flushYoungerThan(e.seq)
			c.redirectValid = true
			c.redirectPC = e.pc + uint64(e.ins.Imm)
			c.redirectAt = e.doneAt + 1
			return true
		}
	case op.IsJump():
		e.result = e.pc + 4
		e.doneAt = c.cycle + 1
		e.state = stIssued
		c.perf.BranchFlushes++
		c.flushYoungerThan(e.seq)
		c.redirectValid = true
		c.redirectPC = e.pc + uint64(e.ins.Imm)
		c.redirectAt = e.doneAt + 1
		return true
	case op == isa.RDCYCLE:
		e.result = uint64(c.cycle)
		if g := c.Cfg.TimerGranularity; g > 1 {
			// Coarse-grained timer mitigation (§8.6): attackers only see
			// the cycle counter quantized to g-cycle steps.
			e.result = uint64(c.cycle / g * g)
		}
		e.doneAt = c.cycle + 1
	default: // FENCE, ECALL
		c.perf.IssuedOther++
		e.result = 0
		e.doneAt = c.cycle + 1
	}
	e.state = stIssued
	return true
}

// issueMem executes a load or store: address generation, privilege check,
// cache access, and (for faulting loads) transient data forwarding.
func (c *Core) issueMem(e *robEntry, rs1, rs2 uint64) {
	addr := rs1 + uint64(e.ins.Imm)
	bytes := e.ins.Op.MemBytes()
	isStore := e.ins.Op.IsStore()
	if isStore {
		c.mem.Write(addr, rs2, bytes)
		res := c.DCache.Access(1, addr, true, c.cycle)
		e.doneAt = res.Ready
		if e.ins.Op == isa.SCD {
			// Store-conditional writes and dirties the line regardless of
			// success (S10); report success.
			e.result = 0
		}
	} else {
		res := c.DCache.Access(0, addr, false, c.cycle)
		e.doneAt = res.Ready
		// Data is forwarded to dependents even on a fault — the transient
		// window (paper §7.3).
		e.result = c.mem.Read(addr, bytes)
		if c.mem.Privileged(addr) {
			e.exception = true
			if c.Cfg.EarlyExceptionDetect {
				// NutShell detects the fault early in the pipeline and
				// flushes before contention can establish (§8.5).
				e.earlyFlushed = true
				c.flushYoungerThan(e.seq)
				c.redirectToHandler()
			}
		}
	}
	e.state = stIssued
}

// ---- dispatch ----

func (c *Core) dispatch() {
	for n := 0; n < c.Cfg.CoreWidth; n++ {
		if c.fbHead >= len(c.fetchBuf) || c.robCount >= len(c.rob) {
			return
		}
		fi := c.fetchBuf[c.fbHead]
		if fi.ins.Op.IsLoad() && c.ldqCount >= c.Cfg.LDQEntries {
			return
		}
		if fi.ins.Op.IsStore() && c.stqCount >= c.Cfg.STQEntries {
			return
		}
		c.fbHead++
		pos := c.robTail
		e := &c.rob[pos]
		*e = robEntry{
			active: true,
			seq:    c.seqNext,
			idx:    fi.idx,
			pc:     fi.pc,
			ins:    fi.ins,
			state:  stWaiting,
		}
		c.seqNext++
		c.perf.Dispatched++
		c.robTail = (c.robTail + 1) % len(c.rob)
		c.robCount++
		c.waitq = append(c.waitq, pos)
		e.src1, e.src2 = c.lastProd[fi.ins.Rs1], c.lastProd[fi.ins.Rs2]
		if rd := fi.ins.Writes(); rd != 0 {
			c.lastProd[rd] = prodRef{pos: pos, seq: e.seq}
		}
		if fi.ins.Op.IsLoad() {
			c.ldqCount++
		}
		if fi.ins.Op.IsStore() {
			c.stqCount++
		}
		if c.inSecretRange(fi.idx) {
			e.secretDep = true
			c.secretInROB++
			if c.secretInROB == 1 && c.window != nil {
				c.window.SetWindow(true)
			}
		}
		if c.bulk.ROB != nil {
			c.bulk.ROB.Touch(pos, n, fi.pc, c.cycle)
		}
		if c.bulk.IssueQ != nil {
			c.bulk.IssueQ.Touch(int(e.seq), n, uint64(fi.ins.Encode()), c.cycle)
		}
	}
}

// mayDispatchSecret reports whether the next cycle's dispatch could reach
// an instruction of the secret-dependent range: one sits among the next
// CoreWidth fetch-buffer entries, with room for it and for the entries
// ahead of it in the ROB and the load/store queues once the next commit has
// retired every entry it can. Until this holds at a cycle boundary, the
// next cycle cannot open the monitoring window. A redirect, a flush or a
// halt can still keep it shut.
func (c *Core) mayDispatchSecret() bool {
	ahead := c.fetchBuf[c.fbHead:]
	ahead = ahead[:min(len(ahead), c.Cfg.CoreWidth)]
	k := 0
	for k < len(ahead) && !c.inSecretRange(ahead[k].idx) {
		k++
	}
	if k == len(ahead) {
		return false
	}
	rob, ldq, stq := c.robCount, c.ldqCount, c.stqCount
	for n, pos := 0, c.robHead; n < c.Cfg.CoreWidth && n < c.robCount; n++ {
		e := &c.rob[pos]
		if e.state != stIssued || e.doneAt >= c.cycle {
			break
		}
		rob--
		if e.ins.Op.IsLoad() {
			ldq--
		}
		if e.ins.Op.IsStore() {
			stq--
		}
		pos = (pos + 1) % len(c.rob)
	}
	for _, fi := range ahead[:k+1] {
		if rob >= len(c.rob) ||
			(fi.ins.Op.IsLoad() && ldq >= c.Cfg.LDQEntries) ||
			(fi.ins.Op.IsStore() && stq >= c.Cfg.STQEntries) {
			return false
		}
		rob++
		if fi.ins.Op.IsLoad() {
			ldq++
		}
		if fi.ins.Op.IsStore() {
			stq++
		}
	}
	return true
}

// inSecretRange reports whether program index idx lies in the
// secret-dependent range.
func (c *Core) inSecretRange(idx int) bool {
	return idx >= 0 && idx >= c.secretStart && idx < c.secretEnd
}

// ---- fetch ----

func (c *Core) fetch() {
	// Compact the fetch queue once dispatch has drained it, so occupancy
	// indices below stay small and the backing array is reused from 0.
	if c.fbHead > 0 && c.fbHead == len(c.fetchBuf) {
		c.fetchBuf = c.fetchBuf[:0]
		c.fbHead = 0
	}
	// Drain a completed fetch group into the fetch buffer.
	if c.hasPending && c.pendingAt <= c.cycle {
		for i, fi := range c.pending {
			if len(c.fetchBuf)-c.fbHead >= c.Cfg.FetchBufEntries {
				break
			}
			c.fetchBuf = append(c.fetchBuf, fi)
			if c.bulk.FetchBuf != nil {
				c.bulk.FetchBuf.Touch(len(c.fetchBuf)-1-c.fbHead, i%c.Cfg.FetchWidth, fi.pc, c.cycle)
			}
		}
		c.hasPending = false
	}
	if c.hasPending || c.redirectValid {
		c.perf.FetchStallCycles++
		return
	}
	if len(c.fetchBuf)-c.fbHead+c.Cfg.FetchWidth > c.Cfg.FetchBufEntries {
		return
	}
	instrs := c.pending[:0]
	pc := c.pc
	for i := 0; i < c.Cfg.FetchWidth; i++ {
		addr := pc + uint64(4*i)
		if i > 0 && addr%LineBytes == 0 {
			break // fetch groups do not cross cacheline boundaries
		}
		word := uint32(c.mem.Read(addr, 4))
		ins, ok := isa.DecodeWord(word)
		idx := -1
		if c.prog != nil {
			idx = c.prog.IndexOf(addr)
		}
		if !ok {
			// Undecodable memory terminates the program.
			instrs = append(instrs, fetchedInstr{pc: addr, idx: idx, ins: isa.Instr{Op: isa.ECALL}})
			break
		}
		instrs = append(instrs, fetchedInstr{pc: addr, idx: idx, ins: ins})
	}
	c.pending = instrs
	if len(instrs) == 0 {
		return
	}
	res := c.ICache.Access(0, c.pc, false, c.cycle)
	c.pendingAt = res.Ready
	c.hasPending = true
	c.perf.FetchGroups++
	c.pc += uint64(4 * len(instrs))
	if c.bulk.BTB != nil {
		c.bulk.BTB.Touch(int(c.pc/4), 0, c.pc, c.cycle)
	}
}

// Netlist returns the netlist this core drives.
func (c *Core) Netlist() *hdl.Netlist { return c.net }
