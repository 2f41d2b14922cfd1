package main

import (
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sonar/internal/fuzz"
)

// The probes measure each layer from outside the program: they wrap the
// seams the public API already exposes (the executor factory, the fleet
// client's HTTP transport, the fleet server's handler) and read the
// runtime's own counters. A probe records only while it is on, so one
// process can run an untraced phase and a traced phase over the same
// campaign set-up.

// execProbe times every call into a campaign's executors.
type execProbe struct {
	on atomic.Bool

	mu         sync.Mutex
	durs       []time.Duration // one entry per Execute or ExecuteGroup call
	groupCalls int
}

// execStats is what an execProbe recorded since the last take.
type execStats struct {
	durs       []time.Duration
	busy       time.Duration
	groupCalls int
}

func (p *execProbe) record(d time.Duration, group bool) {
	p.mu.Lock()
	p.durs = append(p.durs, d)
	if group {
		p.groupCalls++
	}
	p.mu.Unlock()
}

// take returns and clears the recorded calls.
func (p *execProbe) take() execStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := execStats{durs: p.durs, groupCalls: p.groupCalls}
	for _, d := range s.durs {
		s.busy += d
	}
	p.durs, p.groupCalls = nil, 0
	return s
}

// wrap returns e with its calls timed. A GroupExecutor stays a
// GroupExecutor: the campaign engine type-asserts for it, and a wrapper that
// hid ExecuteGroup would silently send lane campaigns down the scalar path.
// A nil probe returns e unchanged.
func (p *execProbe) wrap(e fuzz.Executor) fuzz.Executor {
	if p == nil {
		return e
	}
	t := timedExec{Executor: e, p: p}
	if g, ok := e.(fuzz.GroupExecutor); ok {
		return &timedGroupExec{timedExec: t, g: g}
	}
	return &t
}

// timedExec is an Executor whose Execute calls an execProbe times.
type timedExec struct {
	fuzz.Executor
	p *execProbe
}

func (t *timedExec) Execute(tc *fuzz.Testcase, secret uint64) *fuzz.Execution {
	if !t.p.on.Load() {
		return t.Executor.Execute(tc, secret)
	}
	start := time.Now()
	ex := t.Executor.Execute(tc, secret)
	t.p.record(time.Since(start), false)
	return ex
}

// timedGroupExec is a timedExec over a GroupExecutor that also times
// ExecuteGroup.
type timedGroupExec struct {
	timedExec
	g fuzz.GroupExecutor
}

func (t *timedGroupExec) GroupWidth() int { return t.g.GroupWidth() }

func (t *timedGroupExec) ExecuteGroup(tcs []*fuzz.Testcase, secretA, secretB uint64, chunk int, dst []fuzz.ExecPair) []fuzz.ExecPair {
	if !t.p.on.Load() {
		return t.g.ExecuteGroup(tcs, secretA, secretB, chunk, dst)
	}
	start := time.Now()
	dst = t.g.ExecuteGroup(tcs, secretA, secretB, chunk, dst)
	t.p.record(time.Since(start), true)
	return dst
}

// The fleet API routes the client probe times.
const (
	routeAcquire = "acquire"
	routeReport  = "report"
)

// route names a worker's lease request, or returns "" for any other
// request, which the client probe leaves untimed.
func route(path string) string {
	switch {
	case path == "/api/v1/leases/acquire":
		return routeAcquire
	case strings.HasPrefix(path, "/api/v1/leases/") && strings.HasSuffix(path, "/result"):
		return routeReport
	}
	return ""
}

// routeStats accumulates one route's calls as the client saw them.
type routeStats struct {
	durs      []time.Duration // request start to response body closed
	hits      int             // calls answered 200 (an acquire that got a lease)
	reqBytes  int64
	respBytes int64 // response bytes of the 200 answers
}

// httpProbe times the fleet API from both ends: a RoundTripper on the
// client and a middleware around the server's handler.
type httpProbe struct {
	on atomic.Bool

	mu         sync.Mutex
	client     map[string]*routeStats
	serverBusy time.Duration
}

// httpStats is what an httpProbe recorded since the last take.
type httpStats struct {
	client     map[string]*routeStats
	serverBusy time.Duration
}

func (p *httpProbe) take() httpStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := httpStats{client: p.client, serverBusy: p.serverBusy}
	if s.client == nil {
		s.client = map[string]*routeStats{}
	}
	p.client, p.serverBusy = nil, 0
	return s
}

func (p *httpProbe) addClient(r string, d time.Duration, status int, reqBytes, respBytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.client == nil {
		p.client = map[string]*routeStats{}
	}
	s := p.client[r]
	if s == nil {
		s = &routeStats{}
		p.client[r] = s
	}
	s.durs = append(s.durs, d)
	s.reqBytes += reqBytes
	if status == http.StatusOK {
		s.hits++
		s.respBytes += respBytes
	}
}

// transport wraps a client transport; a nil probe returns base unchanged.
func (p *httpProbe) transport(base http.RoundTripper) http.RoundTripper {
	if p == nil {
		return base
	}
	return &timedTransport{base: base, p: p}
}

// handler wraps a server handler; a nil probe returns h unchanged.
func (p *httpProbe) handler(h http.Handler) http.Handler {
	if p == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !p.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		p.mu.Lock()
		p.serverBusy += d
		p.mu.Unlock()
	})
}

// timedTransport times each request until its response body is closed, so
// a call's time includes reading the body, and counts both bodies' bytes.
type timedTransport struct {
	base http.RoundTripper
	p    *httpProbe
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r := route(req.URL.Path)
	if !t.p.on.Load() || r == "" {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	reqBytes := req.ContentLength
	if reqBytes < 0 {
		reqBytes = 0
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.p.addClient(r, time.Since(start), 0, reqBytes, 0)
		return nil, err
	}
	status := resp.StatusCode
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		t.p.addClient(r, time.Since(start), status, reqBytes, n)
	}}
	return resp, nil
}

// countingBody counts the bytes read from a response body and reports them
// once, on Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// runtimeSample is a reading of the runtime's allocation and CPU-class
// counters (runtime/metrics).
type runtimeSample struct {
	allocs, allocBytes       uint64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readRuntime reads the runtime counters. The CPU classes are snapshots the
// runtime takes at the end of each GC cycle, so a caller that wants them
// current runs a GC first.
func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return s[i].Value.Uint64()
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return runtimeSample{
		allocs:     u(0) + u(1),
		allocBytes: u(2),
		gcCPU:      f(3), totalCPU: f(4), idleCPU: f(5),
	}
}

// sub returns the counter deltas r - o.
func (r runtimeSample) sub(o runtimeSample) runtimeSample {
	return runtimeSample{
		allocs: r.allocs - o.allocs, allocBytes: r.allocBytes - o.allocBytes,
		gcCPU: r.gcCPU - o.gcCPU, totalCPU: r.totalCPU - o.totalCPU, idleCPU: r.idleCPU - o.idleCPU,
	}
}

// gcShare is the GC's share of the CPU time the process used.
func (r runtimeSample) gcShare() float64 {
	busy := r.totalCPU - r.idleCPU
	if busy <= 0 {
		return 0
	}
	return r.gcCPU / busy
}

// percentile returns the q-quantile (0..1) of ds by the nearest-rank rule;
// it sorts ds in place.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}
