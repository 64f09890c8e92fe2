// Package obs is the repository's observability layer: typed metrics
// (counters, gauges, histograms), a structured ring-buffered event trace
// with an optional JSONL sink, and run manifests that make every experiment
// output reproducible.
//
// The package is zero-dependency (standard library only) and built so that
// *disabled* observability is a strict no-op: every metric and trace method
// has a nil receiver fast path, so instrumented code holds plain (possibly
// nil) pointers and never branches on a configuration flag. A nil
// *Observer, *Registry, *Counter, *Gauge, *Histogram, or *Trace accepts
// every call and does nothing, which keeps the PR 2 selection hot loop free
// of measurable overhead when no observer is installed (pinned by
// BenchmarkObsGreedyFill and BenchmarkObsEngine).
//
// When enabled, metrics are updated with atomics (safe for the runner's
// parallel workers and concurrent peer contacts) and events are appended to
// a fixed-capacity ring under a mutex, optionally mirrored to a JSONL sink.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter ignores every update and reads as 0.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is a programming error but not checked — counters
// are observability, not accounting).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric. The zero value is ready; a nil *Gauge
// ignores updates and reads as 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by delta (CAS loop — safe for concurrent use). It
// suits up/down quantities like in-flight contact sessions, where Set would
// race between readers of the old value.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the last recorded value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of exponential histogram buckets: bucket 0
// holds observations <= 1, bucket i holds (2^(i-1), 2^i], and the last
// bucket is the overflow.
const histBuckets = 40

// Histogram accumulates observations into base-2 exponential buckets,
// suitable for the latencies, ages, and sizes this repository measures
// (spanning seconds to weeks, bytes to gigabytes). The zero value is ready;
// a nil *Histogram ignores updates.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v <= 1 {
		return 0
	}
	b := math.Ilogb(v) // 2^b <= v < 2^(b+1)
	if v > math.Ldexp(1, b) {
		b++ // v lies strictly above 2^b: it belongs to the next bucket
	}
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records one value. Negative and NaN observations count into
// bucket 0 (they indicate instrumentation bugs but must not poison sums).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
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
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// HistogramSnapshot is a histogram's serialisable state. Buckets maps the
// bucket upper bound (as a string, for JSON) to its count; empty buckets
// are omitted.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Mean    float64          `json:"mean"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// snapshot captures the histogram.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Mean: h.Mean()}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if s.Buckets == nil {
			s.Buckets = make(map[string]int64)
		}
		bound := math.Ldexp(1, i) // bucket 0 ≤ 1, bucket i ≤ 2^i
		if i == 0 {
			bound = 1
		}
		s.Buckets[fmt.Sprintf("%.0f", bound)] = n
	}
	return s
}

// Registry holds named metrics, one namespace per process or run.
// Lookups register on first use, so subsystems can fetch their metrics
// without an initialisation order. All methods are safe for concurrent use;
// a nil *Registry returns nil metrics (which are themselves no-ops).
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a registry's serialisable state.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric. Nil registries snapshot empty.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counts) > 0 {
		s.Counters = make(map[string]int64, len(r.counts))
		for name, c := range r.counts {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// Names returns the sorted names of all registered metrics (diagnostics and
// tests).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counts)+len(r.gauges)+len(r.hists))
	for n := range r.counts {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal metrics: %w", err)
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteFile writes the snapshot to a file.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: metrics file: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Observer bundles a run's metrics registry and event trace. A nil
// *Observer is the disabled state: every method no-ops and every metric
// lookup returns a nil (no-op) metric.
type Observer struct {
	// Metrics is the run's metric registry.
	Metrics *Registry
	// Trace is the run's event trace (nil = events discarded).
	Trace *Trace
}

// New returns an observer with a fresh registry and a ring-buffered trace
// of the given capacity (0 picks DefaultTraceCap). sink, when non-nil,
// additionally receives every event as one JSON line.
func New(traceCap int, sink io.Writer) *Observer {
	return &Observer{
		Metrics: NewRegistry(),
		Trace:   NewTrace(traceCap, sink),
	}
}

// Enabled reports whether the observer is active.
func (o *Observer) Enabled() bool { return o != nil }

// Counter is a nil-safe registry lookup.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge is a nil-safe registry lookup.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram is a nil-safe registry lookup.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}

// Emit appends an event to the trace (no-op when the observer or its trace
// is nil).
func (o *Observer) Emit(ev Event) {
	if o == nil {
		return
	}
	o.Trace.Emit(ev)
}

// Flush flushes the trace sink, if any.
func (o *Observer) Flush() error {
	if o == nil {
		return nil
	}
	return o.Trace.Flush()
}
