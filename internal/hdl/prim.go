package hdl

import (
	"fmt"
	"strings"
)

// Prim is a combinational primitive operation node (FIRRTL primop): the
// non-MUX combinational logic of a design. Contention-point analysis does
// not traverse Prims (contention lives in MUXes), but the levelized
// simulator evaluates them, so standalone circuits with real logic can be
// simulated, and validity tracing sees their fan-in through the output
// signal's sources.
type Prim struct {
	id int
	// Op is the operation name ("and", "add", "eq", "bits", ...).
	Op string
	// Out is the driven signal.
	Out *Signal
	// Args are the signal operands in order.
	Args []*Signal
	// IntParams carries integer parameters (e.g. bits' hi/lo, shift
	// amounts for shl/shr).
	IntParams []int64
}

// ID returns the netlist-unique identifier of the prim.
func (p *Prim) ID() int { return p.id }

// String implements fmt.Stringer.
func (p *Prim) String() string {
	args := make([]string, 0, len(p.Args)+len(p.IntParams))
	for _, a := range p.Args {
		args = append(args, a.Name())
	}
	for _, ip := range p.IntParams {
		args = append(args, fmt.Sprint(ip))
	}
	return fmt.Sprintf("%s = %s(%s)", p.Out.Name(), p.Op, strings.Join(args, ", "))
}

// Eval computes the primitive's result and drives it onto Out. Unknown
// operations evaluate as the OR of their operands (the conservative
// validity-style reduction the simulator documents).
func (p *Prim) Eval() {
	p.Out.Set(p.Compute())
}

// Compute returns the primitive's result value without driving it.
func (p *Prim) Compute() uint64 {
	arg := func(i int) uint64 {
		if i < len(p.Args) {
			return p.Args[i].Value()
		}
		return 0
	}
	ip := func(i int) int64 {
		if i < len(p.IntParams) {
			return p.IntParams[i]
		}
		return 0
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	switch p.Op {
	case "and":
		return arg(0) & arg(1)
	case "or":
		return arg(0) | arg(1)
	case "xor":
		return arg(0) ^ arg(1)
	case "not":
		return ^arg(0) & p.Args[0].Mask()
	case "add":
		return arg(0) + arg(1)
	case "sub":
		return arg(0) - arg(1)
	case "mul":
		return arg(0) * arg(1)
	case "div":
		if arg(1) == 0 {
			return 0
		}
		return arg(0) / arg(1)
	case "rem":
		if arg(1) == 0 {
			return 0
		}
		return arg(0) % arg(1)
	case "eq":
		return b2u(arg(0) == arg(1))
	case "neq":
		return b2u(arg(0) != arg(1))
	case "lt":
		return b2u(arg(0) < arg(1))
	case "leq":
		return b2u(arg(0) <= arg(1))
	case "gt":
		return b2u(arg(0) > arg(1))
	case "geq":
		return b2u(arg(0) >= arg(1))
	case "shl":
		sh := uint(ip(0))
		if sh >= 64 {
			return 0
		}
		return arg(0) << sh
	case "shr":
		sh := uint(ip(0))
		if sh >= 64 {
			return 0
		}
		return arg(0) >> sh
	case "dshl":
		sh := arg(1)
		if sh >= 64 {
			return 0
		}
		return arg(0) << sh
	case "dshr":
		sh := arg(1)
		if sh >= 64 {
			return 0
		}
		return arg(0) >> sh
	case "cat":
		w1 := 0
		if len(p.Args) > 1 {
			w1 = p.Args[1].Width()
		}
		return arg(0)<<uint(w1) | arg(1)
	case "bits":
		hi, lo := uint(ip(0)), uint(ip(1))
		if hi >= 64 {
			hi = 63
		}
		width := hi - lo + 1
		mask := ^uint64(0)
		if width < 64 {
			mask = (1 << width) - 1
		}
		return (arg(0) >> lo) & mask
	case "head":
		w := p.Args[0].Width()
		n := int(ip(0))
		if n <= 0 || n > w {
			return arg(0)
		}
		return arg(0) >> uint(w-n)
	case "tail":
		w := p.Args[0].Width()
		n := int(ip(0))
		if n <= 0 || n >= w {
			return arg(0)
		}
		return arg(0) & ((1 << uint(w-n)) - 1)
	case "pad", "asUInt", "asSInt", "cvt":
		return arg(0)
	case "andr":
		return b2u(arg(0) == p.Args[0].Mask())
	case "orr":
		return b2u(arg(0) != 0)
	case "xorr":
		v := arg(0)
		var ones uint
		for ; v != 0; v >>= 1 {
			ones += uint(v & 1)
		}
		return uint64(ones & 1)
	case "mux": // lowered elsewhere; defensive
		if arg(0) != 0 {
			return arg(1)
		}
		return arg(2)
	}
	// Unknown op: conservative OR reduction.
	var v uint64
	for i := range p.Args {
		v |= arg(i)
	}
	return v
}

// PrimResultWidth infers the output width of an operation over the given
// operands (capped at 64 bits).
func PrimResultWidth(op string, args []*Signal, intParams []int64) int {
	maxW := 1
	for _, a := range args {
		if a.Width() > maxW {
			maxW = a.Width()
		}
	}
	clamp := func(w int) int {
		if w > 64 {
			return 64
		}
		if w < 1 {
			return 1
		}
		return w
	}
	switch op {
	case "eq", "neq", "lt", "leq", "gt", "geq", "andr", "orr", "xorr":
		return 1
	case "add", "sub":
		return clamp(maxW + 1)
	case "mul":
		w := 0
		for _, a := range args {
			w += a.Width()
		}
		return clamp(w)
	case "cat":
		w := 0
		for _, a := range args {
			w += a.Width()
		}
		return clamp(w)
	case "bits":
		if len(intParams) >= 2 {
			return clamp(int(intParams[0]-intParams[1]) + 1)
		}
	case "shl":
		if len(intParams) >= 1 {
			return clamp(maxW + int(intParams[0]))
		}
	case "head", "tail":
		if len(intParams) >= 1 {
			if op == "head" {
				return clamp(int(intParams[0]))
			}
			return clamp(maxW - int(intParams[0]))
		}
	case "pad":
		if len(intParams) >= 1 && int(intParams[0]) > maxW {
			return clamp(int(intParams[0]))
		}
	}
	return maxW
}

// Prim registers a primitive operation driving out.
func (n *Netlist) Prim(out *Signal, op string, args []*Signal, intParams []int64) *Prim {
	if out.IsConst() {
		panic(fmt.Sprintf("hdl: prim driving constant %s", out.Name()))
	}
	if out.prim != 0 {
		panic(fmt.Sprintf("hdl: signal %s driven by two prims", out.Name()))
	}
	p := n.primSlab.next()
	*p = Prim{id: len(n.prims), Op: op, Out: out, Args: args, IntParams: intParams}
	n.prims = append(n.prims, p)
	out.prim = int32(len(n.prims))
	// Record fan-in for validity tracing.
	for _, a := range args {
		if !a.IsConst() {
			out.AddSource(a)
		}
	}
	return p
}

// Prims returns all primitive nodes in creation order.
func (n *Netlist) Prims() []*Prim { return n.prims }

// PrimDriver returns the prim driving the given signal, if any.
func (n *Netlist) PrimDriver(s *Signal) (*Prim, bool) {
	if s.net != n || s.prim == 0 {
		return nil, false
	}
	return n.prims[s.prim-1], true
}
