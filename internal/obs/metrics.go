package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; all methods are safe on a nil receiver (a disabled counter)
// and for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotonic).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float metric that can go up and down. The zero value is ready
// to use; all methods are safe on a nil receiver and for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// bucket i counts observations <= uppers[i], plus an implicit +Inf bucket).
// All methods are safe on a nil receiver and for concurrent use.
type Histogram struct {
	uppers []float64
	counts []atomic.Int64 // len(uppers)+1; the last is the +Inf bucket
	count  atomic.Int64
	sum    Gauge
}

func newHistogram(uppers []float64) *Histogram {
	u := append([]float64(nil), uppers...)
	sort.Float64s(u)
	return &Histogram{uppers: u, counts: make([]atomic.Int64, len(u)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Metric kinds, matching Prometheus TYPE names.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric: either a single series or, when label is
// non-empty, a set of labeled child series created on demand.
type family struct {
	name, help, kind string
	label            string

	counter   *Counter
	gauge     *Gauge
	histogram *Histogram

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct{ f *family }

// At returns the child counter for the given label value, creating it on
// first use. Safe on a nil receiver (returns a nil, no-op counter).
func (v *CounterVec) At(label string) *Counter {
	if v == nil {
		return nil
	}
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	c, ok := v.f.counters[label]
	if !ok {
		c = &Counter{}
		v.f.counters[label] = c
	}
	return c
}

// Delete removes the child counter for a label value from the family, so
// the exposition no longer lists it. Safe on a nil receiver.
func (v *CounterVec) Delete(label string) {
	if v == nil {
		return
	}
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	delete(v.f.counters, label)
}

// GaugeVec is a gauge family with one label dimension.
type GaugeVec struct{ f *family }

// At returns the child gauge for the given label value, creating it on
// first use. Safe on a nil receiver (returns a nil, no-op gauge).
func (v *GaugeVec) At(label string) *Gauge {
	if v == nil {
		return nil
	}
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	g, ok := v.f.gauges[label]
	if !ok {
		g = &Gauge{}
		v.f.gauges[label] = g
	}
	return g
}

// Delete removes the child gauge for a label value from the family, so the
// exposition no longer lists it. Safe on a nil receiver.
func (v *GaugeVec) Delete(label string) {
	if v == nil {
		return
	}
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	delete(v.f.gauges, label)
}

// Metrics is a registry of named metric families with deterministic
// Prometheus text exposition. Registration is get-or-create: asking twice
// for the same name returns the same metric; asking with a conflicting kind
// panics (a programming error, like redeclaring a variable).
type Metrics struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{families: make(map[string]*family)}
}

func (m *Metrics) register(name, help, kind, label string) *family {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.families[name]; ok {
		if f.kind != kind || f.label != label {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s/%q, was %s/%q",
				name, kind, label, f.kind, f.label))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, label: label}
	switch {
	case label != "" && kind == kindCounter:
		f.counters = make(map[string]*Counter)
	case label != "" && kind == kindGauge:
		f.gauges = make(map[string]*Gauge)
	case kind == kindCounter:
		f.counter = &Counter{}
	case kind == kindGauge:
		f.gauge = &Gauge{}
	}
	m.families[name] = f
	return f
}

// Counter registers (or retrieves) an unlabeled counter.
func (m *Metrics) Counter(name, help string) *Counter {
	return m.register(name, help, kindCounter, "").counter
}

// Gauge registers (or retrieves) an unlabeled gauge.
func (m *Metrics) Gauge(name, help string) *Gauge {
	return m.register(name, help, kindGauge, "").gauge
}

// Histogram registers (or retrieves) a histogram with the given bucket
// upper bounds (an implicit +Inf bucket is always added).
func (m *Metrics) Histogram(name, help string, uppers []float64) *Histogram {
	f := m.register(name, help, kindHistogram, "")
	m.mu.Lock()
	defer m.mu.Unlock()
	if f.histogram == nil {
		f.histogram = newHistogram(uppers)
	}
	return f.histogram
}

// CounterVec registers (or retrieves) a counter family with one label.
func (m *Metrics) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{f: m.register(name, help, kindCounter, label)}
}

// GaugeVec registers (or retrieves) a gauge family with one label.
func (m *Metrics) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{f: m.register(name, help, kindGauge, label)}
}

// ExpositionText renders the registry in the Prometheus text exposition
// format (version 0.0.4). Families are sorted by name and labeled series by
// label value, so the output is deterministic for deterministic values.
func (m *Metrics) ExpositionText() string {
	m.mu.Lock()
	names := make([]string, 0, len(m.families))
	for name := range m.families { //sonar:nondeterministic-ok keys collected then sorted
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, m.families[name])
	}
	m.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		f.expose(&b)
	}
	return b.String()
}

func (f *family) expose(b *strings.Builder) {
	switch {
	case f.label != "" && f.kind == kindCounter:
		f.mu.Lock()
		for _, label := range sortedKeysC(f.counters) {
			fmt.Fprintf(b, "%s{%s=%q} %d\n", f.name, f.label, label, f.counters[label].Value())
		}
		f.mu.Unlock()
	case f.label != "" && f.kind == kindGauge:
		f.mu.Lock()
		for _, label := range sortedKeysG(f.gauges) {
			fmt.Fprintf(b, "%s{%s=%q} %s\n", f.name, f.label, label, formatFloat(f.gauges[label].Value()))
		}
		f.mu.Unlock()
	case f.kind == kindCounter:
		fmt.Fprintf(b, "%s %d\n", f.name, f.counter.Value())
	case f.kind == kindGauge:
		fmt.Fprintf(b, "%s %s\n", f.name, formatFloat(f.gauge.Value()))
	case f.kind == kindHistogram:
		h := f.histogram
		cum := int64(0)
		for i, u := range h.uppers {
			cum += h.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", f.name, formatFloat(u), cum)
		}
		cum += h.counts[len(h.uppers)].Load()
		fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum)
		fmt.Fprintf(b, "%s_sum %s\n", f.name, formatFloat(h.Sum()))
		fmt.Fprintf(b, "%s_count %d\n", f.name, h.Count())
	}
}

func sortedKeysC(m map[string]*Counter) []string {
	ks := make([]string, 0, len(m))
	for k := range m { //sonar:nondeterministic-ok keys collected then sorted
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedKeysG(m map[string]*Gauge) []string {
	ks := make([]string, 0, len(m))
	for k := range m { //sonar:nondeterministic-ok keys collected then sorted
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving ExpositionText — a drop-in
// /metrics endpoint for a Prometheus scrape.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(m.ExpositionText()))
	})
}

// ParseExposition parses Prometheus text exposition into a map from series
// (metric name plus any label set, verbatim) to value. It validates the
// line grammar and is the round-trip check used by the observability tests.
func ParseExposition(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("line %d: no value separator: %q", ln+1, line)
		}
		series, val := line[:i], line[i+1:]
		if err := checkSeriesName(series); err != nil {
			return nil, fmt.Errorf("line %d: %v", ln+1, err)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", ln+1, val, err)
		}
		out[series] = v
	}
	return out, nil
}

func checkSeriesName(series string) error {
	name := series
	if i := strings.IndexByte(series, '{'); i >= 0 {
		if !strings.HasSuffix(series, "}") {
			return fmt.Errorf("unterminated label set in %q", series)
		}
		name = series[:i]
	}
	if name == "" {
		return fmt.Errorf("empty metric name in %q", series)
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("bad metric name %q", name)
		}
	}
	return nil
}
