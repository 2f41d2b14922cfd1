// Package check verifies the structural sanity of an elaborated netlist
// before the analysis and simulation layers consume it.
//
// The trace and sim layers assume properties the hdl builders cannot fully
// enforce at construction time: combinational logic is acyclic modulo
// registers, every consumed wire has some driver, no signal is driven from
// two directions at once, and dense ids stay compact (trace.Analysis.Rebind
// maps state across netlists by id). Check validates all of them in one
// linear pass and returns structured findings rather than a flat error, so
// callers can route individual classes — the constant-select findings line
// up one-to-one with the requests trace.Analyze later discards as constant.
//
// Two elaboration styles need different strictness. FIRRTL-parsed netlists
// are closed designs: every wire must be driven by a node, mux, or primop,
// and an undriven wire is a parse or design bug (Error). Model-driven
// netlists (boom, nutshell) elaborate contention points whose wires are
// poked from Go code each cycle — structurally undriven by design — so
// Options.ExternallyDriven demotes the driver-coverage findings to Info
// while keeping cycles, double drivers, and id compactness as errors.
package check

import (
	"fmt"
	"strings"

	"sonar/internal/hdl"
)

// Code classifies a structural finding.
type Code string

// Finding codes, one per verified property.
const (
	// CodeCycle marks a node that hdl.Netlist.Levelize leaves on a
	// combinational cycle not passing through a register; the simulator
	// compiles that schedule, so it cannot order the node.
	CodeCycle Code = "cycle"
	// CodeUndriven marks a consumed wire with no mux, prim, or source
	// driving it.
	CodeUndriven Code = "undriven"
	// CodeMultiDriven marks a signal driven by both a mux and a prim.
	CodeMultiDriven Code = "multi-driven"
	// CodeDanglingSelect marks a mux select that nothing drives: the
	// selection can never switch structurally.
	CodeDanglingSelect Code = "dangling-select"
	// CodeConstSelect marks a mux whose select is a literal constant — the
	// structural fact behind trace's constant-request filtering.
	CodeConstSelect Code = "const-select"
	// CodeSparseID marks a dense-id compactness violation: signal or mux
	// ids must equal their creation-order index for Rebind to be valid.
	CodeSparseID Code = "sparse-id"
)

// Severity grades a finding.
type Severity uint8

// Severities: Info findings describe structure without condemning it;
// Error findings make Report.Err non-nil.
const (
	Info Severity = iota
	Error
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "info"
}

// Finding is one structural diagnostic tied to a signal or mux.
type Finding struct {
	// Code is the finding class.
	Code Code
	// Severity grades the finding; only Error findings fail Err.
	Severity Severity
	// Signal is the subject signal, if the finding concerns one.
	Signal *hdl.Signal
	// Mux is the subject mux for select-related findings.
	Mux *hdl.Mux
	// Msg is the human-readable description.
	Msg string
}

// String renders the finding as "severity code: msg".
func (f Finding) String() string {
	return fmt.Sprintf("%s %s: %s", f.Severity, f.Code, f.Msg)
}

// Options selects the strictness profile of a check.
type Options struct {
	// ExternallyDriven declares that wires may legitimately have no
	// structural driver because Go model code pokes them cycle by cycle
	// (the boom/nutshell elaboration style). Undriven and dangling-select
	// findings are demoted from Error to Info.
	ExternallyDriven bool
}

// Report is the outcome of one Check run.
type Report struct {
	// Findings holds every finding in deterministic elaboration order.
	Findings []Finding
	name     string
}

// ByCode returns the findings of one class, in order.
func (r *Report) ByCode(c Code) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Code == c {
			out = append(out, f)
		}
	}
	return out
}

// ConstSelects returns the muxes flagged with CodeConstSelect — the set the
// trace layer's constant filter must agree with.
func (r *Report) ConstSelects() []*hdl.Mux {
	var out []*hdl.Mux
	for _, f := range r.Findings {
		if f.Code == CodeConstSelect {
			out = append(out, f.Mux)
		}
	}
	return out
}

// OK reports whether no Error-severity findings exist.
func (r *Report) OK() bool {
	for _, f := range r.Findings {
		if f.Severity == Error {
			return false
		}
	}
	return true
}

// Err returns nil when the report is clean of errors, otherwise an error
// summarizing the first few Error findings.
func (r *Report) Err() error {
	var errs []string
	n := 0
	for _, f := range r.Findings {
		if f.Severity != Error {
			continue
		}
		n++
		if len(errs) < 3 {
			errs = append(errs, f.String())
		}
	}
	if n == 0 {
		return nil
	}
	suffix := ""
	if n > len(errs) {
		suffix = fmt.Sprintf(" (and %d more)", n-len(errs))
	}
	return fmt.Errorf("check: netlist %s: %s%s", r.name, strings.Join(errs, "; "), suffix)
}

// Check runs every structural verification over the netlist and returns the
// collected findings. It never mutates the netlist; cost is linear in
// signals + muxes + prims.
func Check(n *hdl.Netlist, opt Options) *Report {
	r := &Report{name: n.Name()}
	driverSeverity := Severity(Error)
	if opt.ExternallyDriven {
		driverSeverity = Info
	}
	checkIDs(n, r)
	checkDrivers(n, r, driverSeverity)
	checkSelects(n, r, driverSeverity)
	checkCycles(n, r)
	return r
}

// checkIDs verifies dense-id compactness of signals and muxes.
func checkIDs(n *hdl.Netlist, r *Report) {
	for i, s := range n.Signals() {
		if s.ID() != i {
			r.Findings = append(r.Findings, Finding{
				Code: CodeSparseID, Severity: Error, Signal: s,
				Msg: fmt.Sprintf("signal %s has id %d at index %d; Rebind requires dense ids", s.Name(), s.ID(), i),
			})
		}
	}
	for i, m := range n.Muxes() {
		if m.ID() != i {
			r.Findings = append(r.Findings, Finding{
				Code: CodeSparseID, Severity: Error, Mux: m,
				Msg: fmt.Sprintf("mux %s has id %d at index %d; Rebind requires dense ids", m.Out.Name(), m.ID(), i),
			})
		}
	}
}

// checkDrivers flags signals driven from two directions and consumed wires
// with no driver at all.
func checkDrivers(n *hdl.Netlist, r *Report, undrivenSev Severity) {
	consumed := consumedSignals(n)
	for _, s := range n.Signals() {
		_, byMux := n.Driver(s)
		_, byPrim := n.PrimDriver(s)
		if byMux && byPrim {
			r.Findings = append(r.Findings, Finding{
				Code: CodeMultiDriven, Severity: Error, Signal: s,
				Msg: fmt.Sprintf("signal %s is driven by both a mux and a prim", s.Name()),
			})
		}
		if byMux || byPrim || len(s.Sources()) > 0 {
			continue
		}
		switch s.Kind() {
		case hdl.Const, hdl.Input, hdl.Reg:
			continue // externally fixed, externally poked, or stateful
		}
		if !consumed[s] {
			continue // a wire nothing reads is dead, not broken
		}
		r.Findings = append(r.Findings, Finding{
			Code: CodeUndriven, Severity: undrivenSev, Signal: s,
			Msg: fmt.Sprintf("%s %s is consumed but has no driver", s.Kind(), s.Name()),
		})
	}
}

// checkSelects flags constant and dangling mux selects.
func checkSelects(n *hdl.Netlist, r *Report, danglingSev Severity) {
	for _, m := range n.Muxes() {
		sel := m.Sel
		if sel.IsConst() {
			r.Findings = append(r.Findings, Finding{
				Code: CodeConstSelect, Severity: Info, Signal: sel, Mux: m,
				Msg: fmt.Sprintf("mux %s selects through constant %s; the selection never switches", m.Out.Name(), sel.Name()),
			})
			continue
		}
		if sel.Kind() != hdl.Wire {
			continue // inputs and registers change from outside the comb fabric
		}
		_, byMux := n.Driver(sel)
		_, byPrim := n.PrimDriver(sel)
		if byMux || byPrim || len(sel.Sources()) > 0 {
			continue
		}
		r.Findings = append(r.Findings, Finding{
			Code: CodeDanglingSelect, Severity: danglingSev, Signal: sel, Mux: m,
			Msg: fmt.Sprintf("mux %s selects through %s, which nothing drives", m.Out.Name(), sel.Name()),
		})
	}
}

// consumedSignals returns the set of signals read by some mux, prim, or
// declared fan-in edge.
func consumedSignals(n *hdl.Netlist) map[*hdl.Signal]bool {
	consumed := make(map[*hdl.Signal]bool)
	for _, m := range n.Muxes() {
		consumed[m.Sel] = true
		consumed[m.TVal] = true
		consumed[m.FVal] = true
	}
	for _, p := range n.Prims() {
		for _, a := range p.Args {
			consumed[a] = true
		}
	}
	for _, s := range n.Signals() {
		for _, src := range s.Sources() {
			consumed[src] = true
		}
	}
	return consumed
}

// checkCycles flags every node the netlist's combinational schedule
// (hdl.Netlist.Levelize, which the simulator compiles) leaves on a cycle
// that no register breaks.
func checkCycles(n *hdl.Netlist, r *Report) {
	_, cyclic := n.Levelize()
	for _, nd := range cyclic {
		r.Findings = append(r.Findings, Finding{
			Code: CodeCycle, Severity: Error, Signal: nd.Out,
			Msg: fmt.Sprintf("combinational cycle through %s", nd.Out.Name()),
		})
	}
}
