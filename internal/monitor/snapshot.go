package monitor

import (
	"math"
	"math/bits"

	"sonar/internal/trace"
)

// PointSnapshot is the immutable per-point record of one testcase execution.
type PointSnapshot struct {
	// Point is the contention point this snapshot describes.
	Point *trace.Point
	// MinIntvlDistinct is the smallest observed cycle interval between
	// valid events of two distinct requests; NoInterval if fewer than two
	// distinct requests arrived.
	MinIntvlDistinct int64
	// MinIntvlSame is the smallest interval between consecutive valid
	// events of the same request; NoInterval if no request arrived twice.
	MinIntvlSame int64
	// EventCount is the number of valid arrivals inside the monitoring
	// window.
	EventCount int
	// Digest summarizes the full ordered event stream (request indices and
	// data values); differing digests under differing secrets indicate the
	// contention states diverged (paper §7.2).
	Digest uint64
	// VolatileContention reports simultaneous distinct-request arrival
	// (reqsIntvl of zero).
	VolatileContention bool
	// PersistentCandidate reports a same-path revisit with similar data —
	// the persistent-contention precondition (paper §6.2.2).
	PersistentCandidate bool
}

// NoInterval is the MinIntvl value when no qualifying pair was observed.
const NoInterval int64 = math.MaxInt64

// Snapshot is the full record of one instrumented execution.
type Snapshot struct {
	Points []PointSnapshot // per-point state, in ascending point ID order

	// active lists, ascending, the indices of Points that recorded any
	// event; every other entry is the idle record of its point.
	active []int
	// points is the point list the entries of Points are laid out for: an
	// arena recaptured from any monitor over the same list (every lane of
	// one LaneBank shares it) only rewrites what changed.
	points []*trace.Point
}

// Active returns the indices into Points of the entries that recorded any
// event, in ascending order. Every other entry is idle: no events, no
// intervals, the empty-stream digest. The slice belongs to the snapshot and
// must not be modified.
func (s *Snapshot) Active() []int { return s.active }

// Snapshot captures the current collected state of all points. The result
// is freshly allocated and safe to retain; hot paths that recycle snapshots
// should use SnapshotInto instead.
func (m *Monitor) Snapshot() *Snapshot {
	s := new(Snapshot)
	m.SnapshotInto(s)
	return s
}

// SnapshotInto captures the current collected state of all points into s,
// reusing s.Points. After the first call on
// a given arena the capture allocates nothing, which is what keeps the
// steady-state Execute path heap-quiet. The previous contents of s are
// overwritten; callers own the aliasing (a recycled snapshot must no longer
// be read by anyone else).
//
//sonar:alloc-free
func (m *Monitor) SnapshotInto(s *Snapshot) {
	m.set.snapshotInto(s)
}

// snapshotInto captures the set's collected state into s; it backs both
// Monitor.SnapshotInto and the per-lane captures of LaneBank. The capture
// costs O(active points): entries the arena's previous capture made active
// are set back to idle, then only the dirty states are copied in.
//
//sonar:alloc-free
func (ps *pointSet) snapshotInto(s *Snapshot) {
	if !sameList(s.points, ps.points) {
		s.layout(ps.points)
	}
	for _, i := range s.active {
		s.Points[i].setIdle()
	}
	s.active = s.active[:0]
	for wi, left := 0, ps.ndirty; left > 0; wi++ {
		for word := ps.dirty[wi]; word != 0; word &= word - 1 {
			pi := wi<<6 | bits.TrailingZeros64(word)
			st := &ps.states[pi]
			p := &s.Points[pi]
			p.MinIntvlDistinct = st.minIntvlDistinct
			p.MinIntvlSame = st.minIntvlSame
			p.EventCount = st.eventCount
			p.Digest = st.hash
			p.VolatileContention = st.minIntvlDistinct == 0
			p.PersistentCandidate = st.samePathHit
			s.active = append(s.active, pi)
			left--
		}
	}
}

// sameList reports whether two point lists are the same list.
func sameList(a, b []*trace.Point) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// layout (re)shapes the arena for a point list: every entry becomes the idle
// record of its point. The arena allocates nothing after its first sizing.
func (s *Snapshot) layout(points []*trace.Point) {
	if cap(s.Points) < len(points) {
		s.Points = make([]PointSnapshot, len(points))
		s.active = make([]int, 0, len(points))
	}
	s.Points = s.Points[:len(points)]
	for i, p := range points {
		s.Points[i].Point = p
		s.Points[i].setIdle()
	}
	s.active = s.active[:0]
	s.points = points
}

// setIdle turns p into the record of a point that saw no event, keeping its
// Point.
func (p *PointSnapshot) setIdle() {
	*p = PointSnapshot{
		Point:            p.Point,
		MinIntvlDistinct: NoInterval,
		MinIntvlSame:     NoInterval,
		Digest:           fnvOffset,
	}
}

// AppendTriggered appends to dst the IDs of points where any contention
// was triggered: a volatile simultaneous arrival or a persistent same-path
// revisit, in ascending ID order.
func (s *Snapshot) AppendTriggered(dst []int) []int {
	for _, i := range s.active {
		p := &s.Points[i]
		if p.VolatileContention || p.PersistentCandidate {
			dst = append(dst, p.Point.ID)
		}
	}
	return dst
}
