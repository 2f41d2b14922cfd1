package trace

import (
	"strings"

	"sonar/internal/hdl"
)

// validity implements the request validity determination logic of paper
// Algorithm 1. Results are memoized per data signal.
type validity struct {
	net  *hdl.Netlist
	memo map[*hdl.Signal][]*hdl.Signal
	// walking guards against cycles in declared fan-in.
	walking map[*hdl.Signal]bool
	// lists is the free tail of the chunk the valid lists are copied into,
	// so a list costs no object of its own; kept counts the signals copied.
	lists []*hdl.Signal
	kept  int
}

// list returns a copy of sigs carved from the current chunk, or nil for
// none. A new chunk holds half as many signals as were copied before it,
// at least 64 and at most 4096 or len(sigs).
func (v *validity) list(sigs ...*hdl.Signal) []*hdl.Signal {
	if len(sigs) == 0 {
		return nil
	}
	if len(v.lists) < len(sigs) {
		v.lists = make([]*hdl.Signal, max(len(sigs), min(max(v.kept/2, 64), 4096)))
	}
	v.kept += len(sigs)
	return carve(&v.lists, copy(v.lists, sigs))
}

func newValidity(n *hdl.Netlist) *validity {
	return &validity{
		net:     n,
		memo:    make(map[*hdl.Signal][]*hdl.Signal, n.NumMuxes()),
		walking: make(map[*hdl.Signal]bool, 16),
	}
}

// request builds the Request descriptor for a leaf data signal.
func (v *validity) request(data *hdl.Signal) Request {
	r := Request{Data: data}
	if data.IsConst() {
		// The validity field of a constant is always considered valid
		// (paper §5.2) — no valid signal.
		return r
	}
	if isSelfValid(data) {
		r.SelfValid = true
		r.Valids = v.list(data)
		return r
	}
	r.Valids = v.valids(data)
	return r
}

// valids returns the set of signals whose AND indicates validity of data,
// or nil if the request must be considered constantly valid.
func (v *validity) valids(data *hdl.Signal) []*hdl.Signal {
	if got, ok := v.memo[data]; ok {
		return got
	}
	if v.walking[data] {
		return nil
	}
	v.walking[data] = true
	defer delete(v.walking, data)

	// Step 1 (Algorithm 1, line 3): pattern-match a valid signal sharing a
	// name prefix with the data field. io_commit_uops_inst tries
	// io_commit_uops_inst_valid, io_commit_uops_valid, io_commit_valid,
	// io_valid.
	if s := v.prefixValid(data); s != nil {
		v.memo[data] = v.list(s)
		return v.memo[data]
	}

	// Step 2 (lines 4-7): trace back to the data field's source signals;
	// if validity fields are found for all non-constant sources, the
	// request's validity is the bitwise AND of all source validities.
	srcs := data.Sources()
	if len(srcs) == 0 {
		v.memo[data] = nil
		return nil
	}
	var acc []*hdl.Signal
	seen := make(map[*hdl.Signal]bool)
	for _, src := range srcs {
		if src.IsConst() {
			continue // constants are always valid; contribute nothing
		}
		var sv []*hdl.Signal
		if isSelfValid(src) {
			sv = []*hdl.Signal{src}
		} else {
			sv = v.valids(src)
		}
		if sv == nil {
			// A source with undeterminable validity makes the whole
			// conjunction undeterminable: fall through to constantly-valid.
			v.memo[data] = nil
			return nil
		}
		for _, s := range sv {
			if !seen[s] {
				seen[s] = true
				acc = append(acc, s)
			}
		}
	}
	v.memo[data] = v.list(acc...)
	return v.memo[data]
}

// prefixValid searches for a 1-bit signal named <prefix>_valid where prefix
// is a progressively shortened prefix of the data signal name. Matching is
// done on the full hierarchical name, so the valid signal must live in the
// same module as the data field — the paper's "same prefix" convention.
func (v *validity) prefixValid(data *hdl.Signal) *hdl.Signal {
	name := data.Name()
	for prefix := name; ; {
		if s, ok := v.net.Signal(prefix + "_valid"); ok && s.Width() == 1 && s != data {
			return s
		}
		i := strings.LastIndexByte(prefix, '_')
		// Do not strip past the module path ("lsu.ldq" stays intact).
		if i < 0 || i < strings.LastIndexByte(prefix, '.') {
			return nil
		}
		prefix = prefix[:i]
	}
}

// isSelfValid reports whether a signal is itself a validity-style bit: a
// 1-bit signal whose local name is "valid" or ends in "_valid". The paper
// observes (Figure 9) that many early-triggered contention points have
// requests that are exactly such signals.
func isSelfValid(s *hdl.Signal) bool {
	if s.Width() != 1 {
		return false
	}
	local := s.Local()
	return local == "valid" || strings.HasSuffix(local, "_valid")
}
