// Package telemetry is the observability layer of the simulator stack:
// a zero-dependency metrics registry (counters, gauges, fixed-bucket
// histograms), a cycle-attribution profiler for the platform (splitting
// every run's execution time into named architectural components under a
// hard conservation invariant), a bounded structured event log, and
// exporters to JSONL, CSV, Prometheus text exposition and Chrome
// trace_event JSON.
//
// The paper's measurement argument rests on seeing inside the platform:
// Rapita RVS instrumentation points plus the LEON3 performance counters
// are what let the authors attribute execution-time jitter to cache
// placement (Table I) and certify the i.i.d. gate (§V–VI). This package
// gives the reproduction the same visibility — and makes it machine
// readable, so campaign artefacts carry their own provenance.
//
// Everything is nil-safe: every method on a nil *Registry, *Counter,
// *Gauge, *Histogram, *EventLog or *Attribution is a no-op that
// allocates nothing, so disabled telemetry costs (almost) nothing on the
// hot path and call sites need no guards.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Concurrency contract: individual metrics (Counter, Gauge, Histogram)
// are safe for concurrent mutation and read — counters and gauges are
// atomics, histograms take a small internal lock — and Snapshot may run
// while writers are active. A snapshot is consistent per metric (a
// histogram's sum/count/buckets always agree) but makes no cross-metric
// promise: two metrics updated together may be captured one-before,
// one-after. That is exactly the guarantee a mid-campaign Prometheus
// scrape needs, and it is what keeps the ReadPrometheus→WritePrometheus
// round-trip parseable under concurrent registry mutation.

// Counter is a monotonically increasing uint64 metric, safe for
// concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter; nil-safe.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one; nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; nil-safe (0).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float64 metric, safe for concurrent use (the
// value is stored as atomic bits).
type Gauge struct {
	bits atomic.Uint64
}

// Set records the value; nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last recorded value; nil-safe (0).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Bounds are the
// inclusive upper bounds of each bucket; observations above the last
// bound land in the implicit +Inf bucket. Observe and the read methods
// are safe for concurrent use.
type Histogram struct {
	bounds []float64 // immutable after construction

	mu     sync.Mutex
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	n      uint64
}

// Observe records one observation; nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.sum += v
	h.n++
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx]++
	h.mu.Unlock()
}

// Count returns the number of observations; nil-safe (0).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of observations; nil-safe (0).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Bounds returns the bucket upper bounds; nil-safe.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// snapshot captures a consistent (counts, sum, n) triple; the counts
// are cumulative per bound (Prometheus convention: cum[i] =
// observations <= bounds[i]), excluding +Inf.
func (h *Histogram) snapshot() (cum []uint64, sum float64, n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]uint64, len(h.bounds))
	var c uint64
	for i := range h.bounds {
		c += h.counts[i]
		cum[i] = c
	}
	return cum, h.sum, h.n
}

// ExpBounds returns n exponentially spaced bounds starting at start with
// the given factor — the standard latency-histogram shape.
func ExpBounds(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("telemetry: ExpBounds needs n>0, start>0, factor>1")
	}
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// metricKey identifies a metric instance: name plus canonical label text.
type metricKey struct {
	name   string
	labels string
}

// Labels is an unordered label set. Exporters render it sorted by key.
type Labels map[string]string

// String renders the sorted k=v form ("a=1;b=2"), the same canonical
// text the exporters use for identity.
func (l Labels) String() string { return l.canonical() }

// sortedKeys returns the label keys in the order every exporter
// renders them.
func (l Labels) sortedKeys() []string {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// canonical renders the sorted k=v form used for identity and CSV.
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	var b strings.Builder
	for i, k := range l.sortedKeys() {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%s", k, l[k])
	}
	return b.String()
}

// Registry holds named metrics. The zero value of *Registry (nil) is the
// disabled registry: all lookups return nil metrics whose methods no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[metricKey]*Counter
	gauges     map[metricKey]*Gauge
	histograms map[metricKey]*Histogram
	histBounds map[string][]float64 // bounds fixed per metric name
}

// NewRegistry returns an enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[metricKey]*Counter{},
		gauges:     map[metricKey]*Gauge{},
		histograms: map[metricKey]*Histogram{},
		histBounds: map[string][]float64{},
	}
}

// Counter returns (creating if needed) the counter name{labels};
// nil-safe (returns nil, whose methods no-op).
func (r *Registry) Counter(name string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, labels.canonical()}
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge name{labels}; nil-safe.
func (r *Registry) Gauge(name string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, labels.canonical()}
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram name{labels} with
// the given bucket bounds; bounds are fixed by the first registration of
// the name and later calls may pass nil. Nil-safe.
func (r *Registry) Histogram(name string, labels Labels, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, labels.canonical()}
	h, ok := r.histograms[k]
	if !ok {
		bb, fixed := r.histBounds[name]
		if !fixed {
			if len(bounds) == 0 {
				bounds = ExpBounds(1000, 2, 20)
			}
			bb = append([]float64(nil), bounds...)
			sort.Float64s(bb)
			r.histBounds[name] = bb
		}
		h = &Histogram{bounds: bb, counts: make([]uint64, len(bb)+1)}
		r.histograms[k] = h
	}
	return h
}

// MetricKind distinguishes metric families in snapshots and exports.
type MetricKind string

// Metric kinds.
const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// Metric is one exported metric point: a counter or gauge value, or a
// whole histogram (bounds + cumulative counts + sum + count).
type Metric struct {
	Kind   MetricKind `json:"kind"`
	Name   string     `json:"name"`
	Labels Labels     `json:"labels,omitempty"`

	// Value is the counter (as float64, exact below 2^53) or gauge value.
	Value float64 `json:"value,omitempty"`

	// Histogram fields.
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"` // cumulative, excluding +Inf
	Sum    float64   `json:"sum,omitempty"`
	Count  uint64    `json:"count,omitempty"`
}

// key returns the sort/identity key of the metric.
func (m *Metric) key() string {
	return string(m.Kind) + "\x00" + m.Name + "\x00" + m.Labels.canonical()
}

// Snapshot returns every metric in deterministic (kind, name, labels)
// order; nil-safe (empty). Safe to call while writers are active:
// each metric is captured atomically (a histogram's buckets, sum and
// count agree), though metrics updated concurrently may be captured at
// slightly different instants relative to each other.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for k, c := range r.counters {
		out = append(out, Metric{Kind: KindCounter, Name: k.name,
			Labels: parseCanonicalLabels(k.labels), Value: float64(c.Value())})
	}
	for k, g := range r.gauges {
		out = append(out, Metric{Kind: KindGauge, Name: k.name,
			Labels: parseCanonicalLabels(k.labels), Value: g.Value()})
	}
	for k, h := range r.histograms {
		cum, sum, n := h.snapshot()
		out = append(out, Metric{Kind: KindHistogram, Name: k.name,
			Labels: parseCanonicalLabels(k.labels),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: cum, Sum: sum, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// parseCanonicalLabels inverts Labels.canonical.
func parseCanonicalLabels(s string) Labels {
	if s == "" {
		return nil
	}
	out := Labels{}
	for _, kv := range strings.Split(s, ";") {
		if i := strings.IndexByte(kv, '='); i >= 0 {
			out[kv[:i]] = kv[i+1:]
		}
	}
	return out
}
