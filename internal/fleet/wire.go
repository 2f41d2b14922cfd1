package fleet

import (
	"encoding/binary"
	"fmt"

	"sonar/internal/detect"
	"sonar/internal/fuzz"
	"sonar/internal/monitor"
)

// The lease loop's three bodies — the acquire request, the LeaseGrant and
// the report (fuzz.LeaseResult) — travel in one fixed-shape binary
// encoding; every other body of the API is JSON. A body is the format byte
// followed by its fields in a fixed order (docs/SERVICE.md, "Lease wire
// format"):
//
//   - integers are varints: signed ones zigzag-encoded
//     (binary.AppendVarint), unsigned ones plain (binary.AppendUvarint);
//   - strings are a uvarint byte length and the bytes;
//   - slices are a uvarint element count and the elements;
//   - booleans and optional parts are bits of a flags byte.
//
// The encoding is canonical: the decoder accepts only minimal varints,
// defined flag bits and what the encoder writes for the value it decodes,
// so every body it accepts re-encodes to the same bytes. A slice count may
// not exceed the bytes left in the body (every element takes at least one),
// which bounds what a hostile count can make the decoder allocate.

// leaseFormat is the format byte every lease-loop body starts with.
const leaseFormat byte = 1

// leaseContentType is the Content-Type of a lease-loop body.
const leaseContentType = "application/octet-stream"

// present is the flags byte of an optional part that is there (acquire
// holding, outcome finding); 0 marks it absent. A decoder rejects a flags
// byte with a bit set that its field does not define.
const present byte = 1

// Shape flags, in fuzz.Shape field order.
const (
	shapeRetention = 1 << iota
	shapeSelection
	shapeDirectedMutation
	shapeDualCore
	shapeRandomDirection
	shapeFlags = shapeRetention | shapeSelection | shapeDirectedMutation | shapeDualCore | shapeRandomDirection
)

// State-diff flags. An interval travels only when observed: an absent
// IntvlA or IntvlB is monitor.NoInterval, whose varint would take 10 bytes.
// The event counts travel only when either is nonzero.
const (
	diffVolatile = 1 << iota
	diffPersistent
	diffCounts
	diffIntvlA
	diffIntvlB
	diffFlags = diffVolatile | diffPersistent | diffCounts | diffIntvlA | diffIntvlB
)

func appendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// flag returns bit when on holds, else 0.
func flag(on bool, bit byte) byte {
	if on {
		return bit
	}
	return 0
}

func appendIntvls(b []byte, s []fuzz.PointIntvl) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, pi := range s {
		b = appendInt(b, int64(pi.Point))
		b = appendInt(b, pi.Intvl)
	}
	return b
}

// wireReader decodes one lease-loop body. Its error is sticky: after the
// first malformed field every read returns a zero value, and err names
// that first fault.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) failf(format string, a ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, a...)
	}
	r.b = nil
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case r.err != nil:
		return 0
	case n == 0:
		r.failf("truncated body")
		return 0
	case n < 0:
		r.failf("varint overflows 64 bits")
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.failf("varint is not minimally encoded")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varint reads a zigzag-encoded signed varint.
func (r *wireReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *wireReader) int() int {
	v := r.varint()
	if int64(int(v)) != v {
		r.failf("integer %d overflows int", v)
	}
	return int(v)
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.failf("truncated body")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// flags reads a flags byte whose bits must lie within mask.
func (r *wireReader) flags(mask byte) byte {
	f := r.byte()
	if f&^mask != 0 {
		r.failf("undefined flag bits %#x", f&^mask)
		return 0
	}
	return f
}

func (r *wireReader) string() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.failf("string of %d bytes, %d left", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// count reads a slice's element count, which may not exceed the bytes left.
func (r *wireReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.failf("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

// begin reads the format byte.
func (r *wireReader) begin() {
	if f := r.byte(); r.err == nil && f != leaseFormat {
		r.failf("unknown format byte %#x", f)
	}
}

// end returns the decoder's error, or one for trailing bytes.
func (r *wireReader) end() error {
	if r.err == nil && len(r.b) > 0 {
		r.failf("%d trailing bytes", len(r.b))
	}
	return r.err
}

func (r *wireReader) intvls() []fuzz.PointIntvl {
	n := r.count()
	if n == 0 {
		return nil
	}
	s := make([]fuzz.PointIntvl, n)
	for i := range s {
		s[i] = fuzz.PointIntvl{Point: r.int(), Intvl: r.varint()}
	}
	return s
}

// appendAcquire encodes an acquire request: the worker's identifier and the
// corpus prefix it holds, if any.
func appendAcquire(b []byte, worker string, have *Holding) []byte {
	b = append(b, leaseFormat)
	b = appendString(b, worker)
	if have == nil {
		return append(b, 0)
	}
	b = append(b, present)
	b = appendString(b, have.Campaign)
	b = appendInt(b, int64(have.Len))
	return appendString(b, have.Digest)
}

// decodeAcquire decodes an acquire request body.
func decodeAcquire(body []byte) (worker string, have *Holding, err error) {
	r := wireReader{b: body}
	r.begin()
	worker = r.string()
	if r.flags(present) != 0 {
		have = &Holding{Campaign: r.string()}
		have.Len = r.int()
		have.Digest = r.string()
	}
	if err := r.end(); err != nil {
		return "", nil, err
	}
	return worker, have, nil
}

// AppendGrant appends a lease grant's wire encoding to b.
func AppendGrant(b []byte, g *LeaseGrant) []byte {
	b = append(b, leaseFormat)
	b = appendString(b, g.LeaseID)
	b = appendString(b, g.Campaign)
	b = appendString(b, g.DUT)
	b = appendString(b, g.FIRRTL)
	s := &g.Shape
	b = appendInt(b, int64(s.Iterations))
	b = appendInt(b, s.Seed)
	b = append(b, flag(s.Retention, shapeRetention)|flag(s.Selection, shapeSelection)|
		flag(s.DirectedMutation, shapeDirectedMutation)|flag(s.DualCore, shapeDualCore)|
		flag(s.RandomDirection, shapeRandomDirection))
	b = binary.AppendUvarint(b, s.SecretA)
	b = binary.AppendUvarint(b, s.SecretB)
	b = appendInt(b, int64(s.KeepFindings))
	b = appendInt(b, int64(s.Workers))
	b = appendInt(b, int64(s.BatchSize))
	b = appendInt(b, int64(g.Lanes))
	b = appendInt(b, g.TTLMillis)
	l := &g.Lease
	b = appendInt(b, int64(l.Shard))
	b = appendInt(b, int64(l.Round))
	b = appendInt(b, int64(l.N))
	b = binary.AppendUvarint(b, l.Cursor)
	b = appendInt(b, int64(l.CorpusFrom.Len))
	b = appendString(b, l.CorpusFrom.Digest)
	b = appendString(b, l.CorpusDigest)
	b = binary.AppendUvarint(b, uint64(len(l.Corpus.Seeds)))
	for i := range l.Corpus.Seeds {
		sw := &l.Corpus.Seeds[i]
		b = appendString(b, sw.TC)
		b = appendIntvls(b, sw.Intvls)
		b = appendInt(b, int64(sw.Dir))
		b = appendInt(b, int64(sw.Target))
	}
	return appendIntvls(b, l.Corpus.Best)
}

// DecodeGrant decodes a lease grant body.
func DecodeGrant(body []byte) (*LeaseGrant, error) {
	r := wireReader{b: body}
	r.begin()
	g := &LeaseGrant{LeaseID: r.string(), Campaign: r.string(), DUT: r.string(), FIRRTL: r.string()}
	s := &g.Shape
	s.Iterations = r.int()
	s.Seed = r.varint()
	f := r.flags(shapeFlags)
	s.Retention, s.Selection = f&shapeRetention != 0, f&shapeSelection != 0
	s.DirectedMutation, s.DualCore = f&shapeDirectedMutation != 0, f&shapeDualCore != 0
	s.RandomDirection = f&shapeRandomDirection != 0
	s.SecretA, s.SecretB = r.uvarint(), r.uvarint()
	s.KeepFindings, s.Workers, s.BatchSize = r.int(), r.int(), r.int()
	g.Lanes = r.int()
	g.TTLMillis = r.varint()
	l := &g.Lease
	l.Shard, l.Round, l.N = r.int(), r.int(), r.int()
	l.Cursor = r.uvarint()
	l.CorpusFrom.Len = r.int()
	l.CorpusFrom.Digest = r.string()
	l.CorpusDigest = r.string()
	if n := r.count(); n > 0 {
		l.Corpus.Seeds = make([]fuzz.SeedWire, n)
		for i := range l.Corpus.Seeds {
			sw := &l.Corpus.Seeds[i]
			sw.TC = r.string()
			sw.Intvls = r.intvls()
			sw.Dir, sw.Target = r.int(), r.int()
		}
	}
	l.Corpus.Best = r.intvls()
	if err := r.end(); err != nil {
		return nil, err
	}
	return g, nil
}

// AppendReport appends a lease report's wire encoding to b.
func AppendReport(b []byte, res *fuzz.LeaseResult) []byte {
	b = append(b, leaseFormat)
	b = appendInt(b, int64(res.Shard))
	b = appendInt(b, int64(res.Round))
	b = binary.AppendUvarint(b, uint64(len(res.Outcomes)))
	for i := range res.Outcomes {
		ow := &res.Outcomes[i]
		b = binary.AppendUvarint(b, uint64(len(ow.Triggered)))
		for _, id := range ow.Triggered {
			b = appendInt(b, int64(id))
		}
		if ow.Finding == nil {
			b = append(b, 0)
		} else {
			b = append(b, present)
			b = appendFinding(b, ow.Finding)
		}
		b = appendInt(b, ow.Cycles)
		b = appendIntvls(b, ow.Intvls)
	}
	return b
}

func appendFinding(b []byte, f *detect.Finding) []byte {
	b = binary.AppendUvarint(b, uint64(len(f.Affected)))
	for _, a := range f.Affected {
		b = appendInt(b, int64(a.Idx))
		b = appendInt(b, int64(a.Pos))
		b = appendInt(b, a.CCDA)
		b = appendInt(b, a.CCDB)
	}
	b = binary.AppendUvarint(b, uint64(len(f.StateDiffs)))
	for i := range f.StateDiffs {
		sd := &f.StateDiffs[i]
		counts := sd.CountA != 0 || sd.CountB != 0
		b = append(b, flag(sd.Volatile, diffVolatile)|flag(sd.Persistent, diffPersistent)|flag(counts, diffCounts)|
			flag(sd.IntvlA != monitor.NoInterval, diffIntvlA)|flag(sd.IntvlB != monitor.NoInterval, diffIntvlB))
		b = appendInt(b, int64(sd.PointID))
		b = append(b, byte(sd.Reason))
		if counts {
			b = appendInt(b, int64(sd.CountA))
			b = appendInt(b, int64(sd.CountB))
		}
		if sd.IntvlA != monitor.NoInterval {
			b = appendInt(b, sd.IntvlA)
		}
		if sd.IntvlB != monitor.NoInterval {
			b = appendInt(b, sd.IntvlB)
		}
	}
	return b
}

// DecodeReport decodes a lease report body. It checks the encoding only;
// LeaseCoordinator.Report validates what the report says.
func DecodeReport(body []byte) (*fuzz.LeaseResult, error) {
	r := wireReader{b: body}
	r.begin()
	res := &fuzz.LeaseResult{Shard: r.int(), Round: r.int()}
	if n := r.count(); n > 0 {
		res.Outcomes = make([]fuzz.OutcomeWire, n)
	}
	for i := range res.Outcomes {
		ow := &res.Outcomes[i]
		if n := r.count(); n > 0 {
			ow.Triggered = make([]int, n)
			for k := range ow.Triggered {
				ow.Triggered[k] = r.int()
			}
		}
		if r.flags(present) != 0 {
			ow.Finding = r.finding()
		}
		ow.Cycles = r.varint()
		ow.Intvls = r.intvls()
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return res, nil
}

func (r *wireReader) finding() *detect.Finding {
	f := &detect.Finding{}
	if n := r.count(); n > 0 {
		f.Affected = make([]detect.Affected, n)
		for i := range f.Affected {
			f.Affected[i] = detect.Affected{Idx: r.int(), Pos: r.int(), CCDA: r.varint(), CCDB: r.varint()}
		}
	}
	if n := r.count(); n > 0 {
		f.StateDiffs = make([]detect.StateDiff, n)
		for i := range f.StateDiffs {
			f.StateDiffs[i] = r.stateDiff()
		}
	}
	return f
}

func (r *wireReader) stateDiff() detect.StateDiff {
	fl := r.flags(diffFlags)
	sd := detect.StateDiff{
		PointID: r.int(), Reason: detect.Reason(r.byte()),
		IntvlA: monitor.NoInterval, IntvlB: monitor.NoInterval,
		Volatile: fl&diffVolatile != 0, Persistent: fl&diffPersistent != 0,
	}
	if fl&diffCounts != 0 {
		sd.CountA, sd.CountB = r.int(), r.int()
		if sd.CountA == 0 && sd.CountB == 0 {
			r.failf("state diff carries zero event counts")
		}
	}
	if fl&diffIntvlA != 0 {
		sd.IntvlA = r.observed()
	}
	if fl&diffIntvlB != 0 {
		sd.IntvlB = r.observed()
	}
	return sd
}

// observed reads an interval flagged as observed, which is never
// monitor.NoInterval.
func (r *wireReader) observed() int64 {
	v := r.varint()
	if v == monitor.NoInterval {
		r.failf("observed interval is monitor.NoInterval")
	}
	return v
}
