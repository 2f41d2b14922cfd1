package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers are the program's packages a CPU sample can be charged to, in
// report order. gcLayer collects the GC's background workers and
// otherLayer everything no layer claims.
var layers = []string{"uarch", "sim", "monitor", "detect", "fuzz", "fleet", "trace"}

const (
	gcLayer    = "runtime.gc"
	otherLayer = "other"
)

// layerTimes is a CPU profile's sample time per layer.
type layerTimes struct {
	ns    map[string]int64
	total int64
}

// share returns a layer's share of all sampled time.
func (lt layerTimes) share(layer string) float64 {
	if lt.total == 0 {
		return 0
	}
	return float64(lt.ns[layer]) / float64(lt.total)
}

// classify charges one sample, given its stack from the innermost frame
// outwards, to a layer: the innermost frame whose package is a layer. Frames
// of other packages (hdl accessors, isa, encoding/json, the allocator) are
// thereby charged to the layer that called them. Samples no layer claims go
// to gcLayer when a GC background worker took them, else to otherLayer.
func classify(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if fn == "runtime.gcBgMarkWorker" || fn == "runtime.bgsweep" {
			return gcLayer
		}
	}
	return otherLayer
}

// layerOf returns the layer a function belongs to, or "".
func layerOf(fn string) string {
	const prefix = "sonar/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	// The package path ends at the first '.' after the last '/'.
	end := strings.IndexByte(rest, '.')
	if end < 0 || strings.Contains(rest[:end], "/") {
		return ""
	}
	for _, l := range layers {
		if rest[:end] == l {
			return l
		}
	}
	return ""
}

// attribute decodes a gzipped pprof CPU profile and sums its sample time per
// layer.
func attribute(gz []byte) (layerTimes, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return layerTimes{}, err
	}
	lt := layerTimes{ns: map[string]int64{}}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				stack = append(stack, p.funcs[fid])
			}
		}
		l := classify(stack)
		lt.ns[l] += s.value
		lt.total += s.value
	}
	return lt, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	funcs     map[uint64]string   // function id → name
}

type profSample struct {
	locs  []uint64 // location ids, innermost first
	value int64    // the last sample value: CPU nanoseconds in a CPU profile
}

// decodeProfile reads the profile.proto fields the attribution uses:
// Profile.sample (2), .location (4), .function (5) and .string_table (6).
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var sampleMsgs, locMsgs, funcMsgs [][]byte
	var strs []string
	top := pbuf{b: raw}
	for !top.done() {
		num, typ := top.key()
		switch {
		case num == 2 && typ == wireBytes:
			sampleMsgs = append(sampleMsgs, top.bytes())
		case num == 4 && typ == wireBytes:
			locMsgs = append(locMsgs, top.bytes())
		case num == 5 && typ == wireBytes:
			funcMsgs = append(funcMsgs, top.bytes())
		case num == 6 && typ == wireBytes:
			strs = append(strs, string(top.bytes()))
		default:
			top.skip(typ)
		}
	}
	if top.err != nil {
		return nil, top.err
	}

	p := &profile{locations: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	for _, m := range funcMsgs {
		b := pbuf{b: m}
		var id, name uint64
		for !b.done() {
			switch num, typ := b.key(); {
			case num == 1 && typ == wireVarint:
				id = b.varint()
			case num == 2 && typ == wireVarint:
				name = b.varint()
			default:
				b.skip(typ)
			}
		}
		if b.err != nil || name >= uint64(len(strs)) {
			return nil, errors.New("profile: malformed function")
		}
		p.funcs[id] = strs[name]
	}
	for _, m := range locMsgs {
		b := pbuf{b: m}
		var id uint64
		var fids []uint64
		for !b.done() {
			switch num, typ := b.key(); {
			case num == 1 && typ == wireVarint:
				id = b.varint()
			case num == 4 && typ == wireBytes: // Line; inlined callees first
				l := pbuf{b: b.bytes()}
				for !l.done() {
					if n, t := l.key(); n == 1 && t == wireVarint {
						fids = append(fids, l.varint())
					} else {
						l.skip(t)
					}
				}
				b.err = errors.Join(b.err, l.err)
			default:
				b.skip(typ)
			}
		}
		if b.err != nil {
			return nil, fmt.Errorf("profile: malformed location: %w", b.err)
		}
		p.locations[id] = fids
	}
	for _, m := range sampleMsgs {
		b := pbuf{b: m}
		var s profSample
		for !b.done() {
			num, typ := b.key()
			switch {
			case num == 1:
				s.locs = b.uints(typ, s.locs)
			case num == 2:
				vs := b.uints(typ, nil)
				if len(vs) > 0 {
					s.value = int64(vs[len(vs)-1])
				}
			default:
				b.skip(typ)
			}
		}
		if b.err != nil {
			return nil, fmt.Errorf("profile: malformed sample: %w", b.err)
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// pbuf is a minimal protobuf reader; the first error sticks and ends
// reading.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) done() bool { return p.err != nil || len(p.b) == 0 }

func (p *pbuf) fail() {
	if p.err == nil {
		p.err = errors.New("truncated or malformed protobuf")
	}
	p.b = nil
}

func (p *pbuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.fail()
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.fail()
	return 0
}

func (p *pbuf) key() (num, typ int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if n > uint64(len(p.b)) {
		p.fail()
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

func (p *pbuf) skip(typ int) {
	switch typ {
	case wireVarint:
		p.varint()
	case wireBytes:
		p.bytes()
	case wire64, wire32:
		n := 8
		if typ == wire32 {
			n = 4
		}
		if len(p.b) < n {
			p.fail()
			return
		}
		p.b = p.b[n:]
	default:
		p.fail()
	}
}

// uints reads a repeated varint field in packed or unpacked form.
func (p *pbuf) uints(typ int, dst []uint64) []uint64 {
	switch typ {
	case wireVarint:
		return append(dst, p.varint())
	case wireBytes:
		packed := pbuf{b: p.bytes()}
		for !packed.done() {
			dst = append(dst, packed.varint())
		}
		p.err = errors.Join(p.err, packed.err)
		return dst
	}
	p.fail()
	return dst
}
