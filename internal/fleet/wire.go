package fleet

import (
	"encoding/binary"
	"fmt"

	"sonar/internal/detect"
	"sonar/internal/fuzz"
	"sonar/internal/monitor"
)

// The lease loop's three bodies — the acquire request, the LeaseGrant and
// the report (fuzz.LeaseResult) — and a finished fuzz campaign's result
// travel in one fixed-shape binary encoding; every other body of the API is
// JSON. A body is the format byte followed by its fields in a fixed order
// (docs/SERVICE.md, "Lease wire format" and "Result wire format"):
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

// leaseFormat is the format byte every binary body starts with: the lease
// loop's and the fuzz result's.
const leaseFormat byte = 1

// leaseContentType is the Content-Type of a binary body.
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

// wireReader decodes one binary body. Its error is sticky: after the
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

// point reads a point ID, which must exceed prev: the point lists that
// stand for sets ascend strictly from -1.
func (r *wireReader) point(prev int) int {
	id := r.int()
	if id <= prev {
		r.failf("point %d does not ascend past %d", id, prev)
	}
	return id
}

// intvls reads an intvl list — a feedback vector, whose points ascend
// strictly, as the merge walks over it rely on; an empty list reads as nil.
func (r *wireReader) intvls() []fuzz.PointIntvl {
	n := r.count()
	if n == 0 {
		return nil
	}
	s := make([]fuzz.PointIntvl, n)
	for i, id := 0, -1; i < n && r.err == nil; i++ {
		id = r.point(id)
		s[i] = fuzz.PointIntvl{Point: id, Intvl: r.varint()}
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

// fuzzResult is a finished fuzz campaign's result as the result route
// carries it: the statistics with the findings left compact, plus the one
// name table that renders them.
type fuzzResult struct {
	// stats is everything but the rendered findings (fuzz.Stats.WireUnnamed).
	stats fuzz.StatsWire
	// findings are the compact findings, parallel to stats.FindingSeeds.
	findings []*detect.Finding
	// names names every point the findings reference, and no other, in
	// ascending ID order (detect.PointNames).
	names []detect.PointName
}

// newFuzzResult captures a finished campaign's statistics for the wire.
func newFuzzResult(st *fuzz.Stats) *fuzzResult {
	return &fuzzResult{stats: st.WireUnnamed(), findings: st.Findings, names: detect.PointNames(st.Findings, st.Analysis)}
}

// wire renders the result as the fuzz.StatsWire a local run's Stats.Wire
// returns, through the same detect.Render.
func (fr *fuzzResult) wire() *fuzz.StatsWire {
	s := fr.stats
	s.Findings = detect.Render(fr.findings, fr.names)
	return &s
}

// appendResult appends a fuzz result's wire encoding to b.
func appendResult(b []byte, fr *fuzzResult) []byte {
	s := &fr.stats
	b = append(b, leaseFormat)
	b = binary.AppendUvarint(b, uint64(len(s.PerIteration)))
	for _, it := range s.PerIteration {
		b = appendInt(b, int64(it.Iteration))
		b = appendInt(b, int64(it.NewPoints))
		b = appendInt(b, int64(it.CumPoints))
		b = appendInt(b, int64(it.CumTimingDiffs))
	}
	b = binary.AppendUvarint(b, uint64(len(fr.names)))
	for _, pn := range fr.names {
		b = appendInt(b, int64(pn.ID))
		b = appendString(b, pn.Name)
		b = appendString(b, pn.Component)
	}
	b = binary.AppendUvarint(b, uint64(len(fr.findings)))
	for i, f := range fr.findings {
		b = appendFinding(b, f)
		b = appendString(b, s.FindingSeeds[i])
	}
	b = binary.AppendUvarint(b, uint64(len(s.Triggered)))
	for _, id := range s.Triggered {
		b = appendInt(b, int64(id))
	}
	b = appendInt(b, int64(s.SingleValidTriggered))
	b = appendInt(b, int64(s.EarlyTriggered))
	b = binary.AppendUvarint(b, uint64(len(s.EarlyBreakdown)))
	for _, eb := range s.EarlyBreakdown {
		b = appendInt(b, int64(eb[0]))
		b = appendInt(b, int64(eb[1]))
	}
	b = appendInt(b, int64(s.CorpusSize))
	return appendInt(b, s.ExecutedCycles)
}

// decodeResult decodes a fuzz result body. Beyond the encoding it checks
// what rendering relies on: the name table's points ascend, every state
// diff's point is in it and every entry is some diff's, and every state
// diff passes detect.StateDiff.Check. The slices come out nil or empty as
// fuzz.Stats.WireUnnamed makes them, so the rendered result marshals to
// the bytes of the local run's Stats.Wire.
func decodeResult(body []byte) (*fuzzResult, error) {
	r := wireReader{b: body}
	r.begin()
	fr := &fuzzResult{}
	s := &fr.stats
	if n := r.count(); n > 0 {
		s.PerIteration = make([]fuzz.IterStats, n)
		for i := range s.PerIteration {
			s.PerIteration[i] = fuzz.IterStats{Iteration: r.int(), NewPoints: r.int(), CumPoints: r.int(), CumTimingDiffs: r.int()}
		}
	}
	if n := r.count(); n > 0 {
		fr.names = make([]detect.PointName, n)
		for i, id := 0, -1; i < n; i++ {
			id = r.point(id)
			fr.names[i] = detect.PointName{ID: id, Name: r.string(), Component: r.string()}
		}
	}
	used := make([]bool, len(fr.names))
	n := r.count()
	s.FindingSeeds = make([]string, n)
	if n > 0 {
		fr.findings = make([]*detect.Finding, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		f := r.finding()
		for j := range f.StateDiffs {
			sd := &f.StateDiffs[j]
			at, ok := detect.LookupPoint(fr.names, sd.PointID)
			if !ok {
				r.failf("finding %d: point %d is not in the name table", i, sd.PointID)
				break
			}
			used[at] = true
			if err := sd.Check(); err != nil {
				r.failf("finding %d: %v", i, err)
				break
			}
		}
		fr.findings[i] = f
		s.FindingSeeds[i] = r.string()
	}
	for i, u := range used {
		if !u && r.err == nil {
			r.failf("name table point %d is in no finding", fr.names[i].ID)
		}
	}
	s.Triggered = make([]int, r.count())
	for i, id := 0, -1; i < len(s.Triggered); i++ {
		id = r.point(id)
		s.Triggered[i] = id
	}
	s.SingleValidTriggered, s.EarlyTriggered = r.int(), r.int()
	if n := r.count(); n > 0 {
		s.EarlyBreakdown = make([][2]int, n)
		for i := range s.EarlyBreakdown {
			s.EarlyBreakdown[i] = [2]int{r.int(), r.int()}
		}
	}
	s.CorpusSize = r.int()
	s.ExecutedCycles = r.varint()
	if err := r.end(); err != nil {
		return nil, err
	}
	return fr, nil
}
