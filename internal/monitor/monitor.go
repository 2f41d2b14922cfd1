// Package monitor implements Sonar's runtime instrumentation: collection of
// contention-critical microarchitectural states at monitorable contention
// points (paper §5.1 and §6.1).
//
// For every contention point that survives the §5.2 risk filter, the monitor
// watches each request's validity conjunction. On a rising edge inside the
// monitoring window it records a request event and updates the two
// reqsIntvl statistics the fuzzer feeds on:
//
//   - the minimum cycle interval between valid events of two *distinct*
//     requests (0 means simultaneous arrival — a volatile contention);
//   - the minimum interval between two *consecutive* valid events of the
//     same request path (a persistent-contention precondition when the data
//     fields map to the same storage unit).
//
// A recorded event is not kept: it folds into the event count and the
// running stream digest, which together with the two intervals and the
// trigger bits are all the §7.2 contention-state comparison reads.
//
// The monitoring window corresponds to the clock period during which
// secret-dependent instructions are in flight (first one entering the ROB to
// last one committing); only events inside it can belong to secret-dependent
// contention (§6.1).
//
// Points are instrumented in ascending point ID order, so every point list
// a monitor hands out (Snapshot.Points, Snapshot.Active, Triggered) ascends
// by ID.
//
// The per-execution cost follows the points an execution touched, not the
// points instrumented: a monitor keeps a dirty bitset of the states that
// recorded an event since the last Reset, and Reset and snapshot capture
// visit only those states, in ascending order. Every other point is idle — its record is the one it
// had at construction — so on a paper-scale design with thousands of
// monitored points, an execution that touches a hundred of them pays for a
// hundred resets and copies.
//
// Every valid change reaches a monitor through one index, the valid table:
// each watched valid maps to the run of requests whose conjunction names it.
// The three entry points — Monitor.Pulse, the monitor's one scalar watch
// hook, and the LaneBank's one lane hook, each registered on every watched
// valid — read the valid's run and nothing else. A request completes when
// the valid that changed rises and every other valid of its conjunction is
// nonzero in the value plane, so a monitor mirrors no valid state of its
// own.
//
// Behavioural DUTs also enter through Pulse: the uarch Pulser hands a whole
// request pulse (valid raised and lowered in one cycle) to the monitor in
// one call when the monitor's hook is the valid's only watcher, with the
// same effect as dispatching the hook for the rise and the fall.
package monitor

import (
	"math"
	"math/bits"
	"slices"

	"sonar/internal/hdl"
	"sonar/internal/trace"
)

// pointState is the mutable per-point instrumentation state.
type pointState struct {
	point *trace.Point
	// constPeer marks a point with at least one constantly-valid request
	// (no validity indication): any valid arrival coincides with it, so the
	// distinct-request interval is 0 the moment any request fires. This is
	// the paper's §8.3.2 observation ① — contentions dominated by a single
	// valid signal trigger at the outset of testing.
	constPeer bool
	// lastCycle is the last valid-arrival cycle per request (-1 = never).
	lastCycle []int64
	// lastData is the data value at the last arrival per request.
	lastData []uint64
	// lastAnyCycle/lastAnyReq track the most recent arrival of any request.
	lastAnyCycle int64
	lastAnyReq   int

	minIntvlDistinct int64
	minIntvlSame     int64
	eventCount       int
	hash             uint64
	samePathHit      bool // same request twice with similar data
}

// Config tunes the monitor.
type Config struct {
	// SimilarityMask is ANDed over data fields when deciding whether two
	// consecutive same-path requests target the same storage unit (e.g. a
	// cacheline mask). Zero means exact match.
	SimilarityMask uint64
	// IgnoreFilter instruments every traced point, including the ones the
	// §5.2 risk filter would drop — the no-filter ablation. Points without
	// any valid-carrying request still never produce events (there is
	// nothing to watch), but their monitors are carried.
	IgnoreFilter bool
}

// points returns the point list a monitor instruments under this config,
// in the analysis' ascending point ID order.
func (cfg *Config) points(a *trace.Analysis) []*trace.Point {
	if cfg.IgnoreFilter {
		return a.Points
	}
	return a.Monitored()
}

// Monitor instruments a set of contention points over a netlist.
//
// Watch hooks fire whenever a watched valid changes, window open or shut.
// A batch Netlist.Restore must run with the window shut: it writes the
// whole plane before dispatching, so two valids of one conjunction rising
// in one Restore each see the other high and would record the request
// twice, where one Set after the other records it once.
type Monitor struct {
	net    *hdl.Netlist
	cfg    Config
	set    pointSet
	window bool
	valids validTable
	// raised counts the watched valids held high, which no Pulse and no
	// rise-and-fall leaves behind.
	raised int
}

// validTable lists, per watched valid, the requests whose validity
// conjunction names it, as (point, request, data slot, peers) entries in
// registration order: the one index Pulse and the watch hooks of a scalar
// Monitor and of a LaneBank fold a valid change through. Its size follows
// the watched valids, not the netlist.
type validTable struct {
	// valids are the value slots of the watched valids, ascending, and
	// first[i] is the index in entries of valids[i]'s first entry: the
	// valid's target (see target). A valid's entries are contiguous, so a
	// change reads its target's run and nothing else.
	valids  []int32
	first   []int32
	entries []validEntry
	// peers holds, per entry, the value slots of its conjunction's other
	// valids (see validEntry.peerLo).
	peers []int32
	// statements approximates the amount of monitoring logic inserted, the
	// paper's "#New verilog" column in Table 2: one sampling statement per
	// valid a request names, plus the fixed interval registers and
	// comparators of every point. Lanes share one harness, so a LaneBank
	// counts the same.
	statements int
}

// validEntry is one request on a valid's run: the request, where its data
// field reads from, and the other valids its conjunction needs high.
type validEntry struct {
	pi, ri int32
	// data is the request data field's value slot, or -1 when the data
	// field is the valid itself (a self-valid request).
	data int32
	// peers[peerLo:peerHi] are the value slots of the conjunction's other
	// distinct valids; a single-valid request has none and completes on
	// every rising edge.
	peerLo, peerHi int32
	// last marks the final entry of its valid's run.
	last bool
}

// newValidTable builds the valid table of an ordered point list over each
// request's distinct valids, keeping registration order — point, request,
// then valid — within every run.
func newValidTable(points []*trace.Point) validTable {
	type use struct {
		valid int32
		e     validEntry
	}
	var (
		t        validTable
		uses     []use
		distinct []*hdl.Signal
	)
	for pi, p := range points {
		for ri := range p.Requests {
			req := &p.Requests[ri]
			if !req.HasValid() {
				continue
			}
			t.statements += len(req.Valids)
			distinct = distinct[:0]
			for _, v := range req.Valids {
				if !slices.Contains(distinct, v) {
					distinct = append(distinct, v)
				}
			}
			for _, v := range distinct {
				e := validEntry{pi: int32(pi), ri: int32(ri), data: int32(req.Data.ID()), peerLo: int32(len(t.peers))}
				if req.Data == v {
					e.data = -1
				}
				for _, peer := range distinct {
					if peer != v {
						t.peers = append(t.peers, int32(peer.ID()))
					}
				}
				e.peerHi = int32(len(t.peers))
				uses = append(uses, use{valid: int32(v.ID()), e: e})
			}
		}
		t.statements += 2 + len(p.Requests)
	}
	slices.SortStableFunc(uses, func(a, b use) int { return int(a.valid - b.valid) })
	t.entries = make([]validEntry, len(uses))
	for i, u := range uses {
		if i == 0 || uses[i-1].valid != u.valid {
			t.valids = append(t.valids, u.valid)
			t.first = append(t.first, int32(i))
		}
		t.entries[i] = u.e
		t.entries[i].last = i+1 == len(uses) || uses[i+1].valid != u.valid
	}
	return t
}

// target returns the target of the watched valid at value slot id, or -1
// when no request names that valid.
//
//sonar:alloc-free
func (t *validTable) target(id int) int32 {
	i, ok := slices.BinarySearch(t.valids, int32(id))
	if !ok {
		return -1
	}
	return t.first[i]
}

// run returns the run of entries starting at target.
//
//sonar:alloc-free
func (t *validTable) run(target int32) []validEntry {
	es := t.entries[target:]
	n := 1
	for !es[n-1].last {
		n++
	}
	return es[:n]
}

// peersHigh reports whether every other valid of e's conjunction is
// nonzero in the scalar value plane.
//
//sonar:alloc-free
func (t *validTable) peersHigh(e *validEntry, vals []uint64) bool {
	for _, p := range t.peers[e.peerLo:e.peerHi] {
		if vals[p] == 0 {
			return false
		}
	}
	return true
}

// New attaches instrumentation for every monitorable point in the analysis:
// one watch hook, registered on each watched valid, that finds the valid's
// run in the valid table; cheap when values do not change.
func New(a *trace.Analysis, cfg Config) *Monitor {
	if cfg.SimilarityMask == 0 {
		cfg.SimilarityMask = ^uint64(0)
	}
	m := &Monitor{net: a.Netlist, cfg: cfg}
	points := cfg.points(a)
	m.set = newPointSet(points)
	m.valids = newValidTable(points)
	hook := func(s *hdl.Signal, old, new uint64, cycle int64) {
		m.onValid(m.valids.target(s.ID()), old, new, cycle)
	}
	for _, id := range m.valids.valids {
		v := m.net.SignalByID(int(id))
		v.Watch(hook)
		if v.Bool() {
			m.raised++
		}
	}
	return m
}

// pointSet is one ordered list of point states plus its dirty set: the
// indices of the states that recorded an event since the last reset, one
// bit each. A state outside the set is idle — exactly as reset left it — so
// reset and snapshot capture touch only the set's states, which they walk
// in ascending index order a word at a time, stopping at the word that
// holds the last one. A Monitor owns one set; a LaneBank owns one per
// lane, all over the same points.
type pointSet struct {
	points []*trace.Point
	states []pointState
	// dirty holds bit pi%64 of word pi/64 for every dirty state pi; ndirty
	// counts them.
	dirty  []uint64
	ndirty int
}

// newPointSet builds the instrumentation states for an ordered point list,
// reset and ready for hooks. All per-point bookkeeping — the states
// themselves and the per-request records — is carved from a handful of
// contiguous slabs, so construction
// costs O(1) allocations instead of O(points): a LaneBank builds hdl.Lanes
// independent sets, and per-point allocation there dominated
// whole-campaign allocation counts.
func newPointSet(points []*trace.Point) pointSet {
	reqs := 0
	for _, p := range points {
		reqs += len(p.Requests)
	}
	var (
		states = make([]pointState, len(points))
		cycles = make([]int64, reqs)
		data   = make([]uint64, reqs)
	)
	off := 0
	for i, p := range points {
		n := len(p.Requests)
		st := &states[i]
		st.point = p
		st.lastCycle = cycles[off : off+n : off+n]
		st.lastData = data[off : off+n : off+n]
		for ri := range p.Requests {
			req := &p.Requests[ri]
			if !req.HasValid() && !req.Data.IsConst() {
				st.constPeer = true
			}
		}
		st.reset()
		off += n
	}
	return pointSet{points: points, states: states, dirty: make([]uint64, (len(points)+63)/64)}
}

// markDirty adds state pi to the dirty set; it must not be there yet.
func (ps *pointSet) markDirty(pi int32) {
	ps.dirty[pi>>6] |= 1 << (pi & 63)
	ps.ndirty++
}

// reset returns every dirty state to idle and empties the dirty set.
//
//sonar:alloc-free
func (ps *pointSet) reset() {
	for wi, left := 0, ps.ndirty; left > 0; wi++ {
		for word := ps.dirty[wi]; word != 0; word &= word - 1 {
			ps.states[wi<<6|bits.TrailingZeros64(word)].reset()
			left--
		}
		ps.dirty[wi] = 0
	}
	ps.ndirty = 0
}

func (st *pointState) reset() {
	for i := range st.lastCycle {
		st.lastCycle[i] = -1
		st.lastData[i] = 0
	}
	st.lastAnyCycle = -1
	st.lastAnyReq = -1
	st.minIntvlDistinct = math.MaxInt64
	st.minIntvlSame = math.MaxInt64
	st.eventCount = 0
	st.hash = fnvOffset
	st.samePathHit = false
}

// NumPoints returns the number of instrumented contention points.
func (m *Monitor) NumPoints() int { return len(m.set.states) }

// Statements returns the approximate number of inserted monitoring
// statements (Table 2's generated-code proxy).
func (m *Monitor) Statements() int { return m.valids.statements }

// SetWindow opens or closes the monitoring window. Events arriving while
// the window is closed are ignored (paper §6.1).
func (m *Monitor) SetWindow(open bool) { m.window = open }

// WindowOpen reports whether the monitoring window is currently open.
func (m *Monitor) WindowOpen() bool { return m.window }

// Idle reports whether the monitor is as Reset leaves it with every
// watched valid at rest: the window is shut, no point has recorded an
// event, and no watched valid is held high. A caller that
// snapshots a run while the monitor is idle can resume it later from a
// freshly reset monitor.
func (m *Monitor) Idle() bool {
	return !m.window && m.set.ndirty == 0 && m.raised == 0
}

// Hooks returns the number of watch hooks the monitor registered on the
// netlist, its one hook on each watched valid; a netlist with more hooks
// has another observer.
func (m *Monitor) Hooks() int { return len(m.valids.valids) }

// Reset clears all collected state, keeping the instrumentation attached.
// Call it between testcase executions. Only the points that recorded an
// event since the last Reset are touched.
//
//sonar:alloc-free
func (m *Monitor) Reset() {
	m.window = false
	m.set.reset()
}

// onValid folds one value change of the target's valid into the count of
// raised valids; a rise goes on to rise.
//
//sonar:alloc-free
func (m *Monitor) onValid(target int32, old, new uint64, cycle int64) {
	if (old != 0) == (new != 0) {
		return
	}
	if new == 0 {
		m.raised--
		return
	}
	m.raised++
	m.rise(target, new, cycle)
}

// rise folds a rising edge of the target's valid, which now holds v: inside
// the window, every request on the valid's run whose other valids are high
// records an event, in registration order.
//
//sonar:alloc-free
func (m *Monitor) rise(target int32, v uint64, cycle int64) {
	if !m.window {
		return
	}
	vals := m.net.Values()
	es := m.valids.run(target)
	for k := range es {
		e := &es[k]
		if !m.valids.peersHigh(e, vals) {
			continue
		}
		data := v // a self-valid request reads the valid
		if e.data >= 0 {
			data = vals[e.data]
		}
		m.set.record(&m.cfg, e.pi, int(e.ri), cycle, data)
	}
}

// PulseTarget resolves a valid's value slot to its pulse target and the
// number of watch hooks New registered on it: 1, or 0 when the monitor
// does not watch it. It implements uarch.PulseSink.
func (m *Monitor) PulseTarget(valid int) (target int32, hooks int) {
	if target = m.valids.target(valid); target < 0 {
		return -1, 0
	}
	return target, 1
}

// Pulse folds a whole pulse on the target's valid — raised to 1 at the
// given cycle and lowered again — in one call. It leaves the monitor
// exactly as the valid's watch hook would leave it after Set(1) and Set(0),
// provided the valid rested at 0 and that hook is its only watcher: the
// fall undoes the rise's count of raised valids and records nothing. It
// implements uarch.PulseSink.
//
//sonar:alloc-free
func (m *Monitor) Pulse(target int32, cycle int64) {
	m.rise(target, 1, cycle)
}

// record folds one in-window valid arrival of request ri at point pi, with
// the given data-field value, into the point's reqsIntvl statistics, event
// count and stream digest, listing the point dirty on its first event since
// the last reset.
//
//sonar:alloc-free
func (ps *pointSet) record(cfg *Config, pi int32, ri int, cycle int64, data uint64) {
	st := &ps.states[pi]
	if st.eventCount == 0 {
		ps.markDirty(pi)
	}
	// A constantly-valid co-request arrives every cycle: any event is a
	// simultaneous distinct-request arrival.
	if st.constPeer {
		st.minIntvlDistinct = 0
	}
	// Distinct-request interval: against the most recent arrival of any
	// other request. Between resets a point's records arrive in
	// nondecreasing cycle order, so two distinct requests recorded in one
	// cycle include an adjacent pair of distinct requests, and that pair
	// already set the interval to 0 here: same-cycle arrivals need no scan.
	if st.lastAnyCycle >= 0 && st.lastAnyReq != ri {
		if d := cycle - st.lastAnyCycle; d < st.minIntvlDistinct {
			st.minIntvlDistinct = d
		}
	}
	// Same-path interval and data similarity.
	if st.lastCycle[ri] >= 0 {
		if d := cycle - st.lastCycle[ri]; d < st.minIntvlSame {
			st.minIntvlSame = d
		}
		if data&cfg.SimilarityMask == st.lastData[ri]&cfg.SimilarityMask {
			st.samePathHit = true
		}
	}
	st.lastCycle[ri] = cycle
	st.lastData[ri] = data
	st.lastAnyCycle = cycle
	st.lastAnyReq = ri

	st.eventCount++
	// FNV-1a over (req, data): the running hash captures order and values
	// but no cycle, so identical behaviour at a different start cycle
	// hashes identically.
	st.hash = fnv1a(st.hash, uint64(ri))
	st.hash = fnv1a(st.hash, data)
}

// fnvOffset is the FNV-1a offset basis: the digest of an empty event stream.
const fnvOffset = 1469598103934665603

func fnv1a(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}
