package uarch

import (
	"math/bits"

	"sonar/internal/hdl"
)

// divLatency computes the iterative divider latency for a dividend.
func divLatency(cfg *Config, dividend uint64) int64 {
	return int64(cfg.DivLatencyBase + cfg.DivLatencyPerBit*bits.Len64(dividend))
}

// ExecUnits models the integer execution complex: per-ALU single-cycle
// units, a multiplier (pipelined in BOOM, folded into the shared MDU in
// NutShell), an iterative non-pipelined divider, and the shared writeback
// response port (side channel S8: alu > imul > div priority).
type ExecUnits struct {
	cfg    *Config
	pulser *Pulser

	// divBusyUntil is the cycle the non-pipelined divider frees (S9, S13).
	divBusyUntil int64
	// mduBusyUntil is the cycle the shared multiply-divide unit frees
	// (NutShell S13).
	mduBusyUntil int64
	// mulInFlight counts multiplier pipeline occupancy per cycle.
	mulIssued map[int64]int

	// Netlist: divider entry point (two issue slots can race for it).
	divReq [2]Port
	// MDU entry point (mul vs div requests).
	mduMul, mduDiv Port
	// Shared writeback response port requests (S8), indexed by wbClass.
	wb [3]Port
	// wbTaken tracks response-port occupancy per cycle.
	wbTaken map[int64]bool
}

// NewExecUnits elaborates the execution complex under mod.
func NewExecUnits(mod *hdl.Module, pulser *Pulser, cfg *Config) *ExecUnits {
	e := &ExecUnits{
		cfg:       cfg,
		pulser:    pulser,
		mulIssued: make(map[int64]int),
		wbTaken:   make(map[int64]bool),
	}
	div := mod.Child("div")
	inputs := make([]*hdl.Signal, 2)
	for i := 0; i < 2; i++ {
		v := div.Wire(portName("io_req", i)+"_valid", 1)
		inputs[i] = div.Wire(portName("io_req", i)+"_bits_op", 64)
		e.divReq[i] = pulser.Port(v, inputs[i])
	}
	sel := div.Wire("req_sel", 1)
	div.MuxInto(div.Wire("req_in", 64), sel, inputs[0], inputs[1])

	if !cfg.PipelinedMul {
		mdu := mod.Child("mdu")
		mulValid := mdu.Wire("io_mul_valid", 1)
		mulBits := mdu.Wire("io_mul_bits_op", 64)
		divValid := mdu.Wire("io_div_valid", 1)
		divBits := mdu.Wire("io_div_bits_op", 64)
		e.mduMul = pulser.Port(mulValid, mulBits)
		e.mduDiv = pulser.Port(divValid, divBits)
		msel := mdu.Wire("op_sel", 1)
		mdu.MuxInto(mdu.Wire("op_in", 64), msel, mulBits, divBits)
	}
	if cfg.SharedWBPort {
		wb := mod.Child("wb")
		bits := make([]*hdl.Signal, len(e.wb))
		for i, req := range []string{"alu", "imul", "div"} {
			v := wb.Wire("io_"+req+"_valid", 1)
			bits[i] = wb.Wire("io_"+req+"_bits_data", 64)
			e.wb[i] = pulser.Port(v, bits[i])
		}
		s0 := wb.Wire("sel_alu", 1)
		s1 := wb.Wire("sel_imul", 1)
		wb.MuxTree("resp_data", []*hdl.Signal{s0, s1}, bits)
	}
	return e
}

// Reset clears unit occupancy between program runs. The occupancy maps are
// cleared in place so their buckets are reused across runs.
func (e *ExecUnits) Reset() {
	e.divBusyUntil = 0
	e.mduBusyUntil = 0
	clear(e.mulIssued)
	clear(e.wbTaken)
}

// wbClass identifies the requester class at the shared response port.
type wbClass int

const (
	wbALU wbClass = iota
	wbMul
	wbDiv
)

// respPort grants the shared writeback response port: the result computed
// at cycle done writes back at the first free cycle >= done. Requests are
// pulsed at done; priority between same-cycle requesters follows the order
// the issue logic resolves them (alu first — S8).
func (e *ExecUnits) respPort(class wbClass, result uint64, done int64) int64 {
	if !e.cfg.SharedWBPort {
		return done
	}
	e.pulser.At(done, e.wb[class], result)
	t := done
	for e.wbTaken[t] {
		t++
	}
	e.wbTaken[t] = true
	return t
}

// IssueMul starts a multiply whose operands resolved at cycle now. It
// returns the writeback cycle.
func (e *ExecUnits) IssueMul(op uint64, now int64) int64 {
	if e.cfg.PipelinedMul {
		// One new multiply may enter the pipeline per cycle.
		t := now
		for e.mulIssued[t] > 0 {
			t++
		}
		e.mulIssued[t]++
		done := t + int64(e.cfg.MulLatency)
		return e.respPort(wbMul, op, done)
	}
	// Shared non-pipelined MDU (S13).
	e.pulser.At(now, e.mduMul, op)
	start := now
	if start < e.mduBusyUntil {
		start = e.mduBusyUntil
	}
	done := start + int64(e.cfg.MulLatency)
	e.mduBusyUntil = done
	return done
}

// MulBusyAt reports whether the MDU is occupied at a cycle (always false
// for a pipelined multiplier).
func (e *ExecUnits) MulBusyAt(now int64) bool {
	return !e.cfg.PipelinedMul && now < e.mduBusyUntil
}

// DivBusyAt reports whether the divider (or MDU) is occupied at a cycle.
func (e *ExecUnits) DivBusyAt(now int64) bool {
	if e.cfg.PipelinedMul {
		return now < e.divBusyUntil
	}
	return now < e.mduBusyUntil
}

// IssueDiv starts a divide whose operands resolved at cycle now, pulsing
// the divider entry request for the given issue slot. It returns the
// writeback cycle. The divider is non-pipelined: a younger divide that
// enters first blocks an older one (S9).
func (e *ExecUnits) IssueDiv(slot int, dividend uint64, now int64) int64 {
	if slot > 1 {
		slot = 1
	}
	e.pulser.At(now, e.divReq[slot], dividend)
	if !e.cfg.PipelinedMul {
		// NutShell: divide shares the MDU with multiply (S13).
		e.pulser.At(now, e.mduDiv, dividend)
		start := now
		if start < e.mduBusyUntil {
			start = e.mduBusyUntil
		}
		done := start + divLatency(e.cfg, dividend)
		e.mduBusyUntil = done
		return done
	}
	start := now
	if start < e.divBusyUntil {
		start = e.divBusyUntil
	}
	done := start + divLatency(e.cfg, dividend)
	e.divBusyUntil = done
	return e.respPort(wbDiv, dividend, done)
}

// ALUWriteback routes a single-cycle ALU result through the shared response
// port when the op executed on the port-sharing ALU (the last one).
func (e *ExecUnits) ALUWriteback(sharedALU bool, result uint64, done int64) int64 {
	if !sharedALU || !e.cfg.SharedWBPort {
		return done
	}
	return e.respPort(wbALU, result, done)
}
