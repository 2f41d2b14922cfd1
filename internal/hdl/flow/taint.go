// This file holds the taint plane: seeding from the Spec and CellIFT-style
// propagation of per-signal taint bitsets through the netlist's
// combinational schedule (hdl.Netlist.Levelize), with a whole-pass fixpoint
// over register feedback.

package flow

import (
	"fmt"
	"strings"

	"sonar/internal/hdl"
)

// seed matches the spec patterns against every signal and initializes the
// taint plane. explicit marks a caller-provided spec: only then do
// unmatched patterns become Error findings (the heuristic legitimately
// finds nothing on source-free designs).
func (au *Audit) seed(explicit bool) {
	n := au.Netlist
	au.taint = make([]Taint, n.NumSignals())
	match := func(patterns []string, label Taint) ([]*hdl.Signal, []string) {
		var hits []*hdl.Signal
		var misses []string
		add := func(s *hdl.Signal) {
			if !au.taint[s.ID()].Has(label) {
				au.taint[s.ID()] |= label
				hits = append(hits, s)
			}
		}
		for _, pat := range patterns {
			// Exact names (the common case, and everything DefaultSpec
			// emits) resolve by direct lookup; only genuine globs pay the
			// full netlist scan.
			if !strings.ContainsRune(pat, '*') {
				if s, ok := n.Signal(pat); ok {
					add(s)
				} else {
					misses = append(misses, pat)
				}
				continue
			}
			found := false
			for _, s := range n.Signals() {
				if matchGlob(pat, s.Name()) {
					found = true
					add(s)
				}
			}
			if !found {
				misses = append(misses, pat)
			}
		}
		return hits, misses
	}
	var misses []string
	var m []string
	au.SecretSeeds, m = match(au.Spec.Secret, TaintSecret)
	misses = append(misses, m...)
	au.AttackerSeeds, m = match(au.Spec.Attacker, TaintAttacker)
	misses = append(misses, m...)
	if explicit {
		for _, pat := range misses {
			au.Findings = append(au.Findings, Finding{
				Code: CodeUnmatchedPattern, Severity: Error, PointID: -1,
				Msg: fmt.Sprintf("pattern %q matched no signal", pat),
			})
		}
	}
	if len(au.SecretSeeds) == 0 && len(au.AttackerSeeds) == 0 {
		au.Findings = append(au.Findings, Finding{
			Code: CodeNoSeeds, Severity: Info, PointID: -1,
			Msg: "no taint sources designated or inferred; taint columns are vacuous",
		})
	}
}

// propagate runs the taint transfer function to fixpoint over the
// netlist's combinational schedule (hdl.Netlist.Levelize): a node's output
// taint becomes the union of its own and its inputs' taints. One pass in
// levelized order settles all purely combinational flow; the outer loop
// re-runs passes until register feedback stops adding labels. Nodes on a
// combinational cycle (hdl/check's CodeCycle territory) run after the
// ordered ones, in index order, so the fixpoint still covers them — extra
// passes replace levelization there. The transfer function is monotone
// over a finite lattice, so the fixpoint terminates; on an acyclic fabric
// it takes at most (register feedback depth + 1) passes.
//
// The MUX transfer is taint(out) = taint(sel) | taint(tval) | taint(fval):
// like CellIFT's cell-level rule, a tainted select taints the output even
// when both data inputs are clean, because the select decides *which* value
// appears — precisely the influence arbitration grants an attacker.
func (au *Audit) propagate() {
	order, cyclic := au.Netlist.Levelize()
	order = append(order, cyclic...)
	for {
		au.Passes++
		changed := false
		for _, nd := range order {
			t := au.taint[nd.Out.ID()]
			for _, in := range nd.In {
				t |= au.taint[in.ID()]
			}
			if t != au.taint[nd.Out.ID()] {
				au.taint[nd.Out.ID()] = t
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}
