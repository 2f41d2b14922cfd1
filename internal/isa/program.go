package isa

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Program is an instruction sequence placed at a base address.
type Program struct {
	Base uint64  // load address of the first instruction
	Code []Instr // the instruction sequence
}

// NewProgram creates a program at the given base address.
func NewProgram(base uint64, code ...Instr) *Program {
	return &Program{Base: base, Code: code}
}

// Append adds instructions to the end of the program.
func (p *Program) Append(code ...Instr) { p.Code = append(p.Code, code...) }

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Code) }

// End returns the first address past the program.
func (p *Program) End() uint64 { return p.Base + uint64(4*len(p.Code)) }

// AddrOf returns the address of instruction index i.
func (p *Program) AddrOf(i int) uint64 { return p.Base + uint64(4*i) }

// IndexOf returns the instruction index of an address, or -1 if the address
// is outside the program or misaligned.
func (p *Program) IndexOf(addr uint64) int {
	if addr < p.Base || addr >= p.End() || (addr-p.Base)%4 != 0 {
		return -1
	}
	return int(addr-p.Base) / 4
}

// Image renders the program as a little-endian binary image.
func (p *Program) Image() []byte {
	return p.AppendImage(nil)
}

// AppendImage appends the little-endian binary image of the program to dst
// and returns the extended slice. Passing a recycled buffer makes repeated
// image rendering allocation-free.
//
//sonar:alloc-free
func (p *Program) AppendImage(dst []byte) []byte {
	off := len(dst)
	if need := off + 4*len(p.Code); cap(dst) < need {
		grown := make([]byte, need)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:need]
	}
	for i, ins := range p.Code {
		binary.LittleEndian.PutUint32(dst[off+4*i:], ins.Encode())
	}
	return dst
}

// LoadImage decodes a little-endian binary image into a program.
func LoadImage(base uint64, img []byte) (*Program, error) {
	if len(img)%4 != 0 {
		return nil, fmt.Errorf("isa: image length %d not word-aligned", len(img))
	}
	p := &Program{Base: base, Code: make([]Instr, len(img)/4)}
	for i := range p.Code {
		ins, err := Decode(binary.LittleEndian.Uint32(img[4*i:]))
		if err != nil {
			return nil, fmt.Errorf("isa: word %d: %w", i, err)
		}
		p.Code[i] = ins
	}
	return p, nil
}

// Listing renders the program as an assembler listing with addresses.
func (p *Program) Listing() string {
	var b strings.Builder
	for i, ins := range p.Code {
		fmt.Fprintf(&b, "%08x: %s\n", p.AddrOf(i), ins)
	}
	return b.String()
}

// AppendDepChain appends a length-n dependency chain on register reg to dst
// and returns the extended slice: each addi depends on the previous one, so
// operand parsing time grows with n. The fuzzer's directed mutation inserts
// or removes instructions at the head of such chains to shift request
// timing (paper §6.2.1).
//
//sonar:alloc-free
func AppendDepChain(dst []Instr, reg uint8, n int) []Instr {
	for i := 0; i < n; i++ {
		dst = append(dst, I(ADDI, reg, reg, 1))
	}
	return dst
}
