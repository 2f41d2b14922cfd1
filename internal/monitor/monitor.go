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
// points instrumented: a monitor keeps a dirty list of the states that
// recorded an event since the last Reset, and Reset and snapshot capture
// walk only that list. Every other point is idle — its record is the one it
// had at construction — so on a paper-scale design with thousands of
// monitored points, an execution that touches a hundred of them pays for a
// hundred resets and copies.
//
// Behavioural DUTs also enter through Pulse: the uarch Pulser hands a whole
// request pulse (valid raised and lowered in one cycle) to the monitor in
// one call when the monitor's hooks are the valid's only watchers, with the
// same effect as dispatching the hooks for the rise and the fall.
package monitor

import (
	"math"
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
	// trueCnt counts the currently-true valid signals per request; the
	// conjunction holds exactly when trueCnt[ri] == need[ri]. Watch hooks
	// maintain the count incrementally from old/new transitions, so a value
	// change costs O(1) instead of re-reading every valid in the conjunction.
	trueCnt []int32
	// need is the conjunction size per request (0 for requests without
	// validity indication).
	need []int32
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
type Monitor struct {
	net    *hdl.Netlist
	cfg    Config
	set    pointSet
	window bool
	// statements approximates the amount of monitoring logic inserted, the
	// paper's "#New verilog" column in Table 2.
	statements int
	pulses     pulseTable
	// raised is the sum of the true-valid counts over every watched
	// request: nonzero while some watched valid is held high, which no
	// Pulse and no rise-and-fall leaves behind.
	raised int
}

// pulseTable lists, per watched valid, the watch hooks New registered on it
// as (point, request, data slot) entries in registration order, so Pulse
// folds a whole pulse on the valid without dispatching a hook. Its size
// follows the watched valids, not the netlist.
type pulseTable struct {
	// valids are the watched valids' value slots, ascending, and first[i]
	// is the index in entries of valids[i]'s first entry: the valid's
	// pulse target (see PulseTarget).
	valids  []int32
	first   []int32
	entries []pulseEntry
}

// pulseEntry is one watch hook on a valid: the request it belongs to and
// where its data field reads from at the rising edge. A valid's entries
// are contiguous, so a pulse reads its target's run and nothing else.
type pulseEntry struct {
	pi, ri int32
	// data is the request data field's value slot, or -1 when the data
	// field is the pulsed valid itself (a self-valid request), which reads
	// 1 while the valid is high.
	data int32
	// conj marks a request whose validity is a conjunction of several
	// valids; a single-valid request completes on every rising edge.
	conj bool
	// runConj, set on a run's first entry, marks a run with a conj entry:
	// the only kind a pulse outside the window still has to fold.
	runConj bool
	// last marks the final entry of its valid's run.
	last bool
}

// New attaches instrumentation for every monitorable point in the analysis.
// Watch hooks are installed on the request validity signals; they are cheap
// when values do not change.
func New(a *trace.Analysis, cfg Config) *Monitor {
	if cfg.SimilarityMask == 0 {
		cfg.SimilarityMask = ^uint64(0)
	}
	m := &Monitor{net: a.Netlist, cfg: cfg}
	points := cfg.points(a)
	m.set = newPointSet(points)
	var hooks []pulseHook
	for pi, p := range points {
		st := &m.set.states[pi]
		for ri := range p.Requests {
			req := &p.Requests[ri]
			if !req.HasValid() {
				continue
			}
			pi, ri := int32(pi), ri
			hook := func(_ *hdl.Signal, old, new uint64, cycle int64) {
				m.onValidDelta(pi, ri, old, new, cycle)
			}
			for _, v := range req.Valids {
				v.Watch(hook)
				m.statements++ // one sampling statement per watched signal
				e := pulseEntry{pi: pi, ri: int32(ri), data: int32(req.Data.ID()), conj: len(req.Valids) > 1}
				if req.Data == v {
					e.data = -1
				}
				hooks = append(hooks, pulseHook{valid: int32(v.ID()), e: e})
			}
		}
		st.recount()
		for _, cnt := range st.trueCnt {
			m.raised += int(cnt)
		}
		// Interval registers and comparators per point: the fixed part of
		// the inserted monitoring logic.
		m.statements += 2 + len(p.Requests)
	}
	m.pulses = newPulseTable(hooks)
	return m
}

// pulseHook is one watch hook New registered, for building the pulse table.
type pulseHook struct {
	valid int32
	e     pulseEntry
}

// newPulseTable groups the hooks by valid, keeping registration order
// within a valid: the order Signal.Set dispatches them in.
func newPulseTable(hooks []pulseHook) pulseTable {
	slices.SortStableFunc(hooks, func(a, b pulseHook) int { return int(a.valid) - int(b.valid) })
	t := pulseTable{entries: make([]pulseEntry, len(hooks))}
	for i, h := range hooks {
		t.entries[i] = h.e
		if i == 0 || hooks[i-1].valid != h.valid {
			t.valids = append(t.valids, h.valid)
			t.first = append(t.first, int32(i))
		}
		head := &t.entries[t.first[len(t.first)-1]]
		head.runConj = head.runConj || h.e.conj
		t.entries[i].last = i+1 == len(hooks) || hooks[i+1].valid != h.valid
	}
	return t
}

// pointSet is one ordered list of point states plus its dirty list: the
// indices of the states that recorded an event since the last reset, in
// first-record order. A state off the list is idle — exactly as reset left
// it — so reset and snapshot capture touch only the listed states. A Monitor
// owns one set; a LaneBank owns one per lane, all over the same points.
type pointSet struct {
	points []*trace.Point
	states []pointState
	// dirty never outgrows its preallocated len(points) capacity: a state
	// is listed at most once, on its first record after a reset.
	dirty []int32
}

// newPointSet builds the instrumentation states for an ordered point list,
// reset and ready for hooks (the true-valid recount is the caller's job:
// scalar and lane monitors read values from different planes). All
// per-point bookkeeping — the states themselves and the per-request
// counters — is carved from a handful of contiguous slabs, so construction
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
		i32    = make([]int32, 2*reqs)
		cycles = make([]int64, reqs)
		data   = make([]uint64, reqs)
	)
	off := 0
	for i, p := range points {
		n := len(p.Requests)
		st := &states[i]
		st.point = p
		st.trueCnt = i32[off : off+n : off+n]
		st.need = i32[reqs+off : reqs+off+n : reqs+off+n]
		st.lastCycle = cycles[off : off+n : off+n]
		st.lastData = data[off : off+n : off+n]
		for ri := range p.Requests {
			req := &p.Requests[ri]
			if !req.HasValid() && !req.Data.IsConst() {
				st.constPeer = true
			}
			if req.HasValid() {
				st.need[ri] = int32(len(req.Valids))
			}
		}
		st.reset()
		off += n
	}
	return pointSet{points: points, states: states, dirty: make([]int32, 0, len(points))}
}

// reset returns every dirty state to idle and empties the dirty list.
//
//sonar:alloc-free
func (ps *pointSet) reset() {
	for _, pi := range ps.dirty {
		ps.states[pi].reset()
	}
	ps.dirty = ps.dirty[:0]
}

// recount derives the per-request true-valid counts from the current signal
// values. The scalar Monitor calls it once, at construction: from then on
// every value change of a watched signal reaches onValidDelta (Signal.Set
// and Netlist.Restore both dispatch watchers), so the counts stay exact
// across executions without re-reading any valid.
func (st *pointState) recount() {
	for ri := range st.point.Requests {
		req := &st.point.Requests[ri]
		if !req.HasValid() {
			continue
		}
		cnt := int32(0)
		for _, v := range req.Valids {
			if v.Bool() {
				cnt++
			}
		}
		st.trueCnt[ri] = cnt
	}
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
func (m *Monitor) Statements() int { return m.statements }

// SetWindow opens or closes the monitoring window. Events arriving while
// the window is closed are ignored (paper §6.1).
func (m *Monitor) SetWindow(open bool) { m.window = open }

// WindowOpen reports whether the monitoring window is currently open.
func (m *Monitor) WindowOpen() bool { return m.window }

// Idle reports whether the monitor is as Reset leaves it with every
// watched valid at rest: the window is shut, no point has recorded an
// event, and no request's true-valid count is raised. A caller that
// snapshots a run while the monitor is idle can resume it later from a
// freshly reset monitor.
func (m *Monitor) Idle() bool {
	return !m.window && len(m.set.dirty) == 0 && m.raised == 0
}

// Hooks returns the number of watch hooks the monitor registered on the
// netlist; a netlist with more hooks has another observer.
func (m *Monitor) Hooks() int { return len(m.pulses.entries) }

// Reset clears all collected state, keeping the instrumentation attached.
// Call it between testcase executions. Only the points that recorded an
// event since the last Reset are touched.
//
//sonar:alloc-free
func (m *Monitor) Reset() {
	m.window = false
	m.set.reset()
}

// onValidDelta folds one valid-signal value change into the request's
// true-valid count, recording an event on a completed conjunction inside the
// window.
//
//sonar:alloc-free
func (m *Monitor) onValidDelta(pi int32, ri int, old, new uint64, cycle int64) {
	if (old != 0) != (new != 0) {
		if new != 0 {
			m.raised++
		} else {
			m.raised--
		}
	}
	st := &m.set.states[pi]
	if !st.applyValidDelta(ri, old, new) {
		return
	}
	if !m.window {
		return
	}
	m.set.record(&m.cfg, pi, ri, cycle, st.point.Requests[ri].Data.Value())
}

// PulseTarget resolves a valid's value slot to its pulse target and the
// number of watch hooks New registered on it (0 when the monitor does not
// watch it). It implements uarch.PulseSink.
func (m *Monitor) PulseTarget(valid int) (target int32, hooks int) {
	t := &m.pulses
	i, ok := slices.BinarySearch(t.valids, int32(valid))
	if !ok {
		return -1, 0
	}
	end := int32(len(t.entries))
	if i+1 < len(t.first) {
		end = t.first[i+1]
	}
	return t.first[i], int(end - t.first[i])
}

// Pulse folds a whole pulse on the target's valid — raised at the given
// cycle and lowered again — in one call. It leaves the monitor exactly as
// the valid's watch hooks would leave it after Set(1) and Set(0), provided
// the valid rested at 0 and those hooks are its only watchers: every
// rising edge folds first, in registration order, then every falling edge.
// A single-valid request records iff the window is open (its conjunction
// completes on the rise); a conjunction request counts up, records on
// completion, and counts down again. It implements uarch.PulseSink.
//
//sonar:alloc-free
func (m *Monitor) Pulse(target int32, cycle int64) {
	es := m.pulses.entries[target:]
	runConj := es[0].runConj
	if !m.window && !runConj {
		return
	}
	n := 1
	for !es[n-1].last {
		n++
	}
	es = es[:n]
	vals := m.net.Values()
	for i := range es {
		e := &es[i]
		if e.conj {
			st := &m.set.states[e.pi]
			st.trueCnt[e.ri]++
			if st.trueCnt[e.ri] != st.need[e.ri] {
				continue
			}
		}
		if !m.window {
			continue
		}
		data := uint64(1)
		if e.data >= 0 {
			data = vals[e.data]
		}
		m.set.record(&m.cfg, e.pi, int(e.ri), cycle, data)
	}
	if runConj {
		for i := range es {
			if e := &es[i]; e.conj {
				m.set.states[e.pi].trueCnt[e.ri]--
			}
		}
	}
}

// applyValidDelta folds one valid-signal value change into the request's
// true-valid count and reports whether the validity conjunction just
// completed. The conjunction rises exactly when the count reaches the
// conjunction size via an increment: a nonzero→nonzero change leaves the
// truth (and the count) untouched, so this reproduces re-evaluating the full
// conjunction at O(1) cost. Both the scalar Monitor and the LaneBank fold
// their deltas through here.
func (st *pointState) applyValidDelta(ri int, old, new uint64) bool {
	wasTrue, isTrue := old != 0, new != 0
	if wasTrue == isTrue {
		return false // value changed but truth did not
	}
	if !isTrue {
		st.trueCnt[ri]--
		return false
	}
	st.trueCnt[ri]++
	return st.trueCnt[ri] == st.need[ri]
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
		ps.dirty = append(ps.dirty, pi)
	}
	// A constantly-valid co-request arrives every cycle: any event is a
	// simultaneous distinct-request arrival.
	if st.constPeer {
		st.minIntvlDistinct = 0
	}
	// Distinct-request interval: against the most recent arrival of any
	// other request.
	if st.lastAnyCycle >= 0 && st.lastAnyReq != ri {
		if d := cycle - st.lastAnyCycle; d < st.minIntvlDistinct {
			st.minIntvlDistinct = d
		}
	}
	// Same-cycle arrivals of two distinct requests: the other request may
	// have been recorded this very cycle.
	for rj := range st.lastCycle {
		if rj != ri && st.lastCycle[rj] == cycle {
			st.minIntvlDistinct = 0
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
