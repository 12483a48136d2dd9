// Package metrics is a process-wide registry of engine counters and gauges
// (paper §8: Vertica ships a monitoring schema precisely because an MPP
// engine is unoperable as a black box). It is deliberately tiny: named
// atomic int64s plus pull-style funcs, cheap enough to increment on hot
// paths, snapshotted by v_monitor.metrics and the optional debug HTTP
// listener. Subsystems own predeclared metrics (see engine.go) so call
// sites never pay a map lookup.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric for display.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// Gauge is a metric that can move both ways (e.g. active sessions).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Add moves the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set stores an absolute value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// histBuckets is the fixed bucket count: bucket i covers [2^i, 2^(i+1))
// units, so 48 buckets span from 1 unit to ~2^48 (≈ 9 years at µs
// resolution) — enough for any latency this engine can record.
const histBuckets = 48

// Histogram is a fixed log2-bucketed distribution of non-negative
// observations (typically microseconds). Observe is lock-free: one
// atomic add per bucket hit plus count/sum, cheap enough for per-query
// paths. Quantiles are estimated as the upper bound of the bucket
// containing the target rank.
type Histogram struct {
	name    string
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[histBucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// histBucket maps v to its bucket index: 0 for v<=1, else floor(log2 v).
func histBucket(v int64) int {
	i := 0
	for v > 1 && i < histBuckets-1 {
		v >>= 1
		i++
	}
	return i
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Quantile returns an estimate of the q-th quantile (0 < q <= 1): the
// upper bound of the bucket holding the target rank, or 0 with no data.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return int64(1) << uint(i+1) // bucket upper bound
		}
	}
	return int64(1) << histBuckets
}

// Sample is one metric's snapshot row.
type Sample struct {
	Name  string `vt:"name"`
	Kind  Kind   `vt:"kind"`
	Value int64  `vt:"value"`
}

// funcEntry is a pull-style gauge owned by whoever registered it; seq lets
// the owner unregister exactly its own registration even if the name was
// since re-registered (databases open and close freely within a process).
type funcEntry struct {
	f   func() int64
	seq int64
}

// Registry holds named metrics. The zero value is not usable; use
// NewRegistry or the package Default.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	funcs      map[string]funcEntry
	funcSeq    int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
		funcs:      map[string]funcEntry{},
	}
}

// Default is the process-wide registry all engine metrics live in.
var Default = NewRegistry()

// NewCounter registers (or returns the existing) counter under name.
func (r *Registry) NewCounter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// NewGauge registers (or returns the existing) gauge under name.
func (r *Registry) NewGauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// NewHistogram registers (or returns the existing) histogram under name.
func (r *Registry) NewHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.histograms[name] = h
	return h
}

// RegisterFunc registers a pull-style gauge evaluated at snapshot time. A
// later registration under the same name replaces an earlier one (the
// newest database instance wins); the returned func unregisters this
// registration and is a no-op once replaced.
func (r *Registry) RegisterFunc(name string, f func() int64) (unregister func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcSeq++
	seq := r.funcSeq
	r.funcs[name] = funcEntry{f: f, seq: seq}
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if e, ok := r.funcs[name]; ok && e.seq == seq {
			delete(r.funcs, name)
		}
	}
}

// RegisterFunc registers a pull-style gauge on the Default registry.
func RegisterFunc(name string, f func() int64) (unregister func()) {
	return Default.RegisterFunc(name, f)
}

// Snapshot returns every metric's current value, sorted by name. Func
// metrics are evaluated after unlock (a func that re-enters the registry
// would deadlock under the lock).
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+len(r.funcs))
	for _, c := range r.counters {
		out = append(out, Sample{Name: c.name, Kind: KindCounter, Value: c.Value()})
	}
	for _, g := range r.gauges {
		out = append(out, Sample{Name: g.name, Kind: KindGauge, Value: g.Value()})
	}
	for _, h := range r.histograms {
		// Histograms flatten to suffixed samples so both sinks (/metrics,
		// v_monitor.metrics) render them as plain rows.
		out = append(out,
			Sample{Name: h.name + ".count", Kind: KindHistogram, Value: h.Count()},
			Sample{Name: h.name + ".sum", Kind: KindHistogram, Value: h.Sum()},
			Sample{Name: h.name + ".p50", Kind: KindHistogram, Value: h.Quantile(0.50)},
			Sample{Name: h.name + ".p95", Kind: KindHistogram, Value: h.Quantile(0.95)},
			Sample{Name: h.name + ".p99", Kind: KindHistogram, Value: h.Quantile(0.99)},
		)
	}
	type pending struct {
		name string
		f    func() int64
	}
	var fns []pending
	for name, e := range r.funcs {
		fns = append(fns, pending{name: name, f: e.f})
	}
	r.mu.Unlock()
	for _, p := range fns {
		out = append(out, Sample{Name: p.name, Kind: KindGauge, Value: p.f()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
