package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Kind names one campaign event type.
type Kind string

// The campaign event stream. Events are emitted by the campaign coordinator
// in canonical iteration order (see fuzz.Options.Observer), so a stream is
// byte-identical across runs for a fixed (Seed, Workers, BatchSize) — no
// event field carries wall-clock time; latencies live in metrics only.
const (
	// CampaignStart opens a campaign: DUT, Iterations, Workers, BatchSize,
	// Seed.
	CampaignStart Kind = "campaign_start"
	// IterationDone closes one iteration: Iteration, NewPoints, CumPoints,
	// CumTimingDiffs, Cycles (this iteration's simulated cycles).
	IterationDone Kind = "iteration_done"
	// PointTriggered records the first trigger of a contention point:
	// Iteration, Point, Interval (best distinct-request reqsIntvl observed
	// by the triggering testcase; -1 if only a same-path trigger).
	PointTriggered Kind = "point_triggered"
	// FindingDetected records a dual-differential finding: Iteration,
	// Findings (retained so far).
	FindingDetected Kind = "finding_detected"
	// BatchMerged closes one parallel merge round: Batch,
	// MergedIterations, CorpusSize.
	BatchMerged Kind = "batch_merged"
	// CampaignEnd closes a campaign: Iterations (executed), CumPoints,
	// CumTimingDiffs, Findings, CorpusSize, Cycles (campaign total).
	CampaignEnd Kind = "campaign_end"
	// WorkerFailed records one failed batch attempt (worker panic or wedged
	// iteration): Worker, Batch, Attempt (1-based), Reason. A shard
	// abandonment is reported as a final WorkerFailed with Attempt == 0 —
	// the abandonment is a disposition, not an attempt, so its marker can
	// never collide with a real attempt number. Emitted by the coordinator
	// after the merge barrier, in worker order, so the stream stays
	// deterministic for a fixed fault schedule.
	WorkerFailed Kind = "worker_failed"
	// BatchRetried records a batch that succeeded on a retry after one or
	// more failures: Worker, Batch, Attempt (the succeeding attempt,
	// 1-based).
	BatchRetried Kind = "batch_retried"
)

// Event is one structured campaign event. Every kind uses the shared Kind
// and Seq header plus the subset of fields its constant documents; fields
// not listed for a kind are zero. Fields are never omitted from the JSON
// encoding, so a JSONL stream round-trips exactly.
type Event struct {
	Kind Kind `json:"kind"` // event type (the Kind constants)
	// Seq is the 1-based position in the stream (assigned by the Observer).
	Seq int `json:"seq"`
	// Iteration is the 1-based canonical iteration index.
	Iteration int `json:"iteration"`

	DUT        string `json:"dut"`        // DUT design name
	Iterations int    `json:"iterations"` // campaign budget / executed total
	Workers    int    `json:"workers"`    // effective worker count
	BatchSize  int    `json:"batch_size"` // effective per-worker batch size
	Seed       int64  `json:"seed"`       // campaign RNG seed

	Point    int   `json:"point"`    // contention point ID
	Interval int64 `json:"interval"` // best distinct-request reqsIntvl (-1 = same-path only)

	NewPoints      int   `json:"new_points"`       // points newly triggered this iteration
	CumPoints      int   `json:"cum_points"`       // cumulative distinct triggered points
	CumTimingDiffs int   `json:"cum_timing_diffs"` // cumulative timing-difference testcases
	Cycles         int64 `json:"cycles"`           // simulated cycles (per-iteration or total)

	Batch            int `json:"batch"`             // 1-based merge round
	MergedIterations int `json:"merged_iterations"` // iterations folded this round
	CorpusSize       int `json:"corpus_size"`       // merged corpus size
	Findings         int `json:"findings"`          // retained findings so far

	// Worker is the parallel worker index a fault event refers to.
	Worker int `json:"worker"`
	// Attempt is the 1-based batch attempt a fault event refers to; 0 on a
	// worker_failed event marks the shard-abandonment disposition (see the
	// WorkerFailed Kind).
	Attempt int `json:"attempt"`
	// Reason is the failure description of a worker_failed event. Reasons
	// carry no wall-clock content, preserving stream determinism under a
	// fixed fault schedule.
	Reason string `json:"reason"`
}

// appendJSONL appends the event's JSONL encoding (one JSON object plus a
// newline). encoding/json emits struct fields in declaration order, so the
// encoding is deterministic.
func (e Event) appendJSONL(dst []byte) []byte {
	b, err := json.Marshal(e)
	if err != nil {
		// Event has no unmarshalable fields; keep the sink interface
		// error-free.
		panic(fmt.Sprintf("obs: marshal event: %v", err))
	}
	dst = append(dst, b...)
	return append(dst, '\n')
}

// Sink consumes a campaign event stream. Emit is called by a single
// goroutine (the campaign coordinator, serialized by the Observer); Close
// flushes and releases the sink and reports any deferred write error.
type Sink interface {
	Emit(e Event)
	Close() error
}

// JSONLSink streams events to a writer as JSON Lines. If the writer is an
// io.Closer, Close closes it. Write errors are sticky and reported by
// Close, so the hot path stays branch-light.
type JSONLSink struct {
	w   *bufio.Writer
	c   io.Closer
	buf []byte
	err error
}

// NewJSONLSink wraps w in a buffered JSON Lines event sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	s.buf = e.appendJSONL(s.buf[:0])
	_, s.err = s.w.Write(s.buf)
}

// Close implements Sink.
func (s *JSONLSink) Close() error {
	if err := s.w.Flush(); s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// MemorySink records events in memory — the sink campaign tests compare
// streams with. Unlike the other sinks it is safe for concurrent use.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit implements Sink.
func (s *MemorySink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Close implements Sink.
func (s *MemorySink) Close() error { return nil }

// Events returns a copy of the recorded stream.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// Bytes returns the stream's JSONL encoding — the byte-identity form of
// the determinism contract.
func (s *MemorySink) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b []byte
	for _, e := range s.events {
		b = e.appendJSONL(b)
	}
	return b
}

// tee fans one stream out to several sinks.
type tee struct{ sinks []Sink }

// Tee returns a sink that forwards every event to all the given sinks and
// closes them all on Close (returning the first error).
func Tee(sinks ...Sink) Sink { return &tee{sinks: sinks} }

func (t *tee) Emit(e Event) {
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

func (t *tee) Close() error {
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// progressSink renders a live single-line progress report from the event
// stream — the human-facing counterpart of the JSONL sink. It writes
// carriage-return-terminated updates (suitable for a terminal's stderr) and
// a final newline-terminated summary at CampaignEnd. Wall-clock rates are
// computed locally and never enter the event stream.
type progressSink struct {
	w     io.Writer
	every int
	start time.Time
	total int
}

// NewProgressSink returns a sink printing a progress line to w after every
// `every` iterations (and at campaign boundaries). every <= 0 means 100.
func NewProgressSink(w io.Writer, every int) Sink {
	if every <= 0 {
		every = 100
	}
	return &progressSink{w: w, every: every}
}

func (p *progressSink) Emit(e Event) {
	switch e.Kind {
	case CampaignStart:
		p.start = time.Now() //sonar:nondeterministic-ok progress display timing, not part of the event stream
		p.total = e.Iterations
		fmt.Fprintf(p.w, "campaign %s: %d iterations, %d worker(s), batch %d, seed %d\n",
			e.DUT, e.Iterations, e.Workers, e.BatchSize, e.Seed)
	case IterationDone:
		if e.Iteration%p.every != 0 {
			return
		}
		fmt.Fprintf(p.w, "\r  %d/%d iters (%.0f/s)  points=%d  timing-diffs=%d   ",
			e.Iteration, p.total, p.rate(e.Iteration), e.CumPoints, e.CumTimingDiffs)
	case CampaignEnd:
		fmt.Fprintf(p.w, "\r  %d/%d iters (%.0f/s)  points=%d  timing-diffs=%d  findings=%d  corpus=%d\n",
			e.Iterations, p.total, p.rate(e.Iterations), e.CumPoints, e.CumTimingDiffs,
			e.Findings, e.CorpusSize)
	}
}

func (p *progressSink) rate(iters int) float64 {
	el := time.Since(p.start).Seconds() //sonar:nondeterministic-ok progress display timing, not part of the event stream
	if p.start.IsZero() || el <= 0 {
		return 0
	}
	return float64(iters) / el
}

func (p *progressSink) Close() error { return nil }
