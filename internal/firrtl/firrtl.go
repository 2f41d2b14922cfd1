// Package firrtl parses a FIRRTL-style text subset into hdl netlists and
// prints netlists back to that form.
//
// The Sonar paper performs its analyses on FIRRTL, the intermediate
// representation between Chisel and Verilog, because it "preserves rich
// structural details of the design". This package implements the slice of
// FIRRTL that those analyses consume:
//
//	circuit Top :
//	  module Top :
//	    input io_req_valid : UInt<1>
//	    input io_req_bits_addr : UInt<32>
//	    output ldq_stq_idx : UInt<5>
//	    wire w : UInt<5>
//	    reg r : UInt<5>
//	    node sel0 = or(a, b)
//	    ldq_stq_idx <= mux(sel0, w, mux(sel1, r, UInt<5>(0)))
//	    w <= io_req_bits_addr
//	    skip
//
// Supported statements: circuit/module headers, port/wire/reg declarations
// with UInt widths, node definitions, connects (<=), skip, and ";" comments.
// Expressions: identifiers, UInt literals, mux(sel, tval, fval) with
// arbitrary nesting, and generic primitive operations op(args...) which are
// recorded as fan-in ("sources") for validity tracing. Module instances are
// not supported; each module's signals live under its own name path.
package firrtl

import (
	"fmt"
	"strconv"
	"strings"

	"sonar/internal/hdl"
	"sonar/internal/hdl/check"
)

// ParseError describes a syntax error with its line number.
type ParseError struct {
	Line int    // 1-based source line of the error
	Msg  string // what went wrong
}

// Error formats the error with its line number.
func (e *ParseError) Error() string {
	return fmt.Sprintf("firrtl: line %d: %s", e.Line, e.Msg)
}

type parser struct {
	net  *hdl.Netlist
	mod  *hdl.Module
	line int
	// tmp counters for anonymous wires/constants, per module
	nTmp   int
	nConst int
}

// ParseChecked parses FIRRTL-subset source text and then structurally
// verifies the resulting netlist under the strict profile (package check):
// combinational cycles, undriven consumed wires, double drivers, dangling
// selects, and dense-id violations all fail. A FIRRTL circuit is a closed
// design, so unlike the externally-poked model netlists there is no
// legitimate reason for a consumed wire to lack a driver.
func ParseChecked(src string) (*hdl.Netlist, error) {
	n, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := check.Check(n, check.Options{}).Err(); err != nil {
		return nil, err
	}
	return n, nil
}

// Parse parses FIRRTL-subset source text into a netlist.
func Parse(src string) (*hdl.Netlist, error) {
	p := &parser{}
	lines := strings.Split(src, "\n")
	for i, raw := range lines {
		p.line = i + 1
		line := raw
		if idx := strings.IndexByte(line, ';'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.stmt(line); err != nil {
			return nil, err
		}
	}
	if p.net == nil {
		return nil, &ParseError{Line: 0, Msg: "no circuit declaration"}
	}
	return p.net, nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) stmt(line string) error {
	switch {
	case strings.HasPrefix(line, "circuit "):
		name := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "circuit ")), ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return p.errf("circuit with no name")
		}
		if p.net != nil {
			return p.errf("multiple circuit declarations")
		}
		p.net = hdl.NewNetlist(name)
		return nil
	case strings.HasPrefix(line, "module "):
		if p.net == nil {
			return p.errf("module before circuit")
		}
		name := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "module ")), ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return p.errf("module with no name")
		}
		p.mod = p.net.Module(name)
		p.nTmp, p.nConst = 0, 0
		return nil
	case line == "skip":
		return nil
	}
	if p.mod == nil {
		return p.errf("statement outside module: %q", line)
	}
	for _, kw := range []string{"input", "output", "wire", "reg"} {
		if strings.HasPrefix(line, kw+" ") {
			return p.decl(kw, strings.TrimPrefix(line, kw+" "))
		}
	}
	if strings.HasPrefix(line, "node ") {
		rest := strings.TrimPrefix(line, "node ")
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return p.errf("node without '='")
		}
		name := strings.TrimSpace(rest[:eq])
		if !validIdent(name) {
			return p.errf("bad node name %q", name)
		}
		return p.defineNode(name, strings.TrimSpace(rest[eq+1:]))
	}
	if idx := strings.Index(line, "<="); idx >= 0 {
		lhs := strings.TrimSpace(line[:idx])
		rhs := strings.TrimSpace(line[idx+2:])
		return p.connect(lhs, rhs)
	}
	return p.errf("unrecognized statement %q", line)
}

// decl parses "name : UInt<W>" with an optional ", clock" tail for regs.
func (p *parser) decl(kw, rest string) error {
	if idx := strings.Index(rest, ","); idx >= 0 {
		rest = rest[:idx] // drop reg clock spec
	}
	colon := strings.Index(rest, ":")
	if colon < 0 {
		return p.errf("%s declaration missing ':'", kw)
	}
	name := strings.TrimSpace(rest[:colon])
	if !validIdent(name) {
		return p.errf("bad %s name %q", kw, name)
	}
	width, err := p.parseType(strings.TrimSpace(rest[colon+1:]))
	if err != nil {
		return err
	}
	if err := p.free(name); err != nil {
		return err
	}
	switch kw {
	case "input":
		p.mod.Input(name, width)
	case "output":
		p.mod.Output(name, width)
	case "wire":
		p.mod.Wire(name, width)
	case "reg":
		p.mod.Reg(name, width)
	}
	return nil
}

// parseType parses "UInt<W>" (also accepts "Clock" as width 1).
func (p *parser) parseType(s string) (int, error) {
	if s == "Clock" {
		return 1, nil
	}
	if !strings.HasPrefix(s, "UInt<") || !strings.HasSuffix(s, ">") {
		return 0, p.errf("unsupported type %q", s)
	}
	w, err := strconv.Atoi(s[len("UInt<") : len(s)-1])
	if err != nil || w < 1 || w > 64 {
		return 0, p.errf("bad width in %q", s)
	}
	return w, nil
}

func (p *parser) defineNode(name, expr string) error {
	if err := p.free(name); err != nil {
		return err
	}
	sig, err := p.expr(expr, name)
	if err != nil {
		return err
	}
	// If expr already produced a signal with exactly this target name (a mux
	// lowered into it), we are done. Otherwise alias: create the node wire
	// and record the source.
	if sig.Local() == name {
		return nil
	}
	node := p.mod.Wire(name, sig.Width())
	node.AddSource(sig)
	return nil
}

func (p *parser) connect(lhs, rhs string) error {
	dst, ok := p.net.Signal(p.qualify(lhs))
	if !ok {
		return p.errf("connect to undeclared signal %q", lhs)
	}
	if strings.HasPrefix(rhs, "mux(") {
		if dst.IsConst() {
			return p.errf("connect to constant %q", lhs)
		}
		if _, driven := p.net.Driver(dst); driven {
			return p.errf("signal %q driven by two muxes", lhs)
		}
		_, err := p.parseMux(rhs, dst)
		return err
	}
	src, err := p.expr(rhs, "")
	if err != nil {
		return err
	}
	dst.AddSource(src)
	return nil
}

// expr evaluates an expression, returning the signal carrying its value.
// If into is non-empty and the expression is a mux, the mux output wire is
// created with that name.
func (p *parser) expr(s string, into string) (*hdl.Signal, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "mux("):
		var dst *hdl.Signal
		if into != "" {
			// Width is unknown until operands parse; create after.
			return p.parseMuxNamed(s, into)
		}
		return p.parseMux(s, dst)
	case strings.HasPrefix(s, "UInt<"):
		return p.literal(s)
	case strings.Contains(s, "("):
		return p.primop(s)
	default:
		if !validIdent(s) {
			return nil, p.errf("bad expression %q", s)
		}
		sig, ok := p.net.Signal(p.qualify(s))
		if !ok {
			return nil, p.errf("reference to undeclared signal %q", s)
		}
		return sig, nil
	}
}

// parseMuxNamed lowers a mux expression into a freshly created wire named
// name within the current module.
func (p *parser) parseMuxNamed(s, name string) (*hdl.Signal, error) {
	sel, tv, fv, err := p.muxArgs(s)
	if err != nil {
		return nil, err
	}
	w := tv.Width()
	if fv.Width() > w {
		w = fv.Width()
	}
	out := p.mod.Wire(name, w)
	p.mod.MuxInto(out, sel, tv, fv)
	return out, nil
}

// parseMux lowers a mux expression. If dst is non-nil the mux drives dst,
// otherwise a temporary wire is created.
func (p *parser) parseMux(s string, dst *hdl.Signal) (*hdl.Signal, error) {
	sel, tv, fv, err := p.muxArgs(s)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		w := tv.Width()
		if fv.Width() > w {
			w = fv.Width()
		}
		dst = p.mod.Wire(p.tmpName("_t", &p.nTmp), w)
	}
	p.mod.MuxInto(dst, sel, tv, fv)
	return dst, nil
}

func (p *parser) muxArgs(s string) (sel, tv, fv *hdl.Signal, err error) {
	args, err := splitArgs(s[len("mux("):])
	if err != nil {
		return nil, nil, nil, p.errf("mux: %v", err)
	}
	if len(args) != 3 {
		return nil, nil, nil, p.errf("mux expects 3 arguments, got %d", len(args))
	}
	if sel, err = p.expr(args[0], ""); err != nil {
		return nil, nil, nil, err
	}
	if tv, err = p.expr(args[1], ""); err != nil {
		return nil, nil, nil, err
	}
	if fv, err = p.expr(args[2], ""); err != nil {
		return nil, nil, nil, err
	}
	return sel, tv, fv, nil
}

// primop handles primitive operations op(a, b, ...): a Prim node is
// created with the signal operands and integer parameters (e.g.
// bits(x, 3, 0)), the output width inferred per operation, and fan-in
// recorded for validity tracing. The levelized simulator evaluates the
// node with real semantics.
func (p *parser) primop(s string) (*hdl.Signal, error) {
	open := strings.Index(s, "(")
	op := s[:open]
	if !validIdent(op) {
		return nil, p.errf("bad operation %q", op)
	}
	args, err := splitArgs(s[open+1:])
	if err != nil {
		return nil, p.errf("%s: %v", op, err)
	}
	var sigs []*hdl.Signal
	var intParams []int64
	for _, a := range args {
		if n, errNum := strconv.ParseInt(strings.TrimSpace(a), 0, 64); errNum == nil {
			intParams = append(intParams, n)
			continue
		}
		sig, err := p.expr(a, "")
		if err != nil {
			return nil, err
		}
		sigs = append(sigs, sig)
	}
	out := p.mod.Wire(p.tmpName("_t", &p.nTmp), hdl.PrimResultWidth(op, sigs, intParams))
	p.net.Prim(out, op, sigs, intParams)
	return out, nil
}

// literal parses UInt<W>(V) into a fresh constant signal.
func (p *parser) literal(s string) (*hdl.Signal, error) {
	gt := strings.Index(s, ">")
	if gt < 0 || gt+1 >= len(s) || s[gt+1] != '(' || !strings.HasSuffix(s, ")") {
		return nil, p.errf("bad literal %q", s)
	}
	width, err := p.parseType(s[:gt+1])
	if err != nil {
		return nil, err
	}
	val, err := strconv.ParseUint(strings.TrimSpace(s[gt+2:len(s)-1]), 0, 64)
	if err != nil {
		return nil, p.errf("bad literal value in %q", s)
	}
	return p.mod.Const(p.tmpName("_c", &p.nConst), width, val), nil
}

func (p *parser) qualify(name string) string {
	return p.mod.Path() + "." + name
}

// free reports a declaration of a name the current module already has.
func (p *parser) free(name string) error {
	if _, dup := p.net.Signal(p.qualify(name)); dup {
		return p.errf("duplicate signal %q", name)
	}
	return nil
}

// tmpName returns the next name prefix+n, counting n up, that the current
// module does not have yet: a source may declare its own "_t1", or repeat
// a module and so restart the counters.
func (p *parser) tmpName(prefix string, n *int) string {
	for {
		*n++
		name := prefix + strconv.Itoa(*n)
		if _, taken := p.net.Signal(p.qualify(name)); !taken {
			return name
		}
	}
}

// splitArgs splits "a, mux(b, c, d), e)" — the contents of a call up to its
// closing paren — into top-level comma-separated arguments.
func splitArgs(s string) ([]string, error) {
	var args []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '<':
			depth++
		case '>':
			depth--
		case ')':
			if depth == 0 {
				if strings.TrimSpace(s[start:i]) != "" {
					args = append(args, strings.TrimSpace(s[start:i]))
				}
				if strings.TrimSpace(s[i+1:]) != "" {
					return nil, fmt.Errorf("trailing text after ')': %q", s[i+1:])
				}
				return args, nil
			}
			depth--
		case ',':
			if depth == 0 {
				args = append(args, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	return nil, fmt.Errorf("missing ')'")
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
