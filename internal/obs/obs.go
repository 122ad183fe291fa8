// Package obs is the module's observability layer: a named registry of
// atomic counters, gauges and fixed-bucket histograms, hierarchical timed
// spans that render as a wall-time breakdown tree, a leveled logger, and
// exporters (Prometheus text format, JSON snapshot, pprof capture).
//
// Design constraints, in order:
//
//   - Instrumentation must never perturb results. Nothing in this package
//     feeds back into simulation or evaluation; tables and figures stay
//     byte-identical with observability on or off, at any worker count.
//   - Hot paths pay atomic adds only. Callers resolve *Counter/*Gauge
//     handles once (a mutex-guarded map lookup) and then record through
//     them without locks or allocation. Per-event instrumentation is
//     avoided entirely in the sweep engine: workers accumulate locally
//     and publish once per (trace × index) task.
//   - Snapshots are deterministic in structure: metric and span names are
//     emitted in sorted order, so diffs between runs show only the values.
//
// The zero registry is obtained with New; Default() returns the shared
// process-wide registry used by the hot paths when no explicit registry is
// threaded through (cmd/predsim exports it via -obs).
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The nil counter
// discards all updates, so optional instrumentation needs no branches at
// call sites beyond the pointer check Add performs itself.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Safe on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can be set or added to (occupancy,
// pool sizes, high-water marks). The nil gauge discards updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds v to the gauge. Safe on a nil receiver.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value. Safe on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf bucket.
// Buckets and sum update atomically; Observe allocates nothing.
type Histogram struct {
	bounds []float64 // ascending upper bounds, fixed at creation
	counts []atomic.Int64
	inf    atomic.Int64
	sum    Gauge
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.sum.Add(v)
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.inf.Add(1)
}

// Sum returns the sum of all observed values. Safe on a nil receiver.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DurationBuckets are the default span/task-duration bucket bounds in
// seconds, spanning sub-millisecond table renders to multi-minute sweeps.
var DurationBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 30, 120}

// Registry is a named collection of metrics and spans. All methods are
// safe for concurrent use; handle resolution takes a mutex, recording
// through a resolved handle does not. A nil *Registry resolves only nil
// handles, making every instrument a no-op.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter   //predlint:guardedby mu
	gauges   map[string]*Gauge     //predlint:guardedby mu
	hists    map[string]*Histogram //predlint:guardedby mu
	spans    map[string]*spanStat  //predlint:guardedby mu
	manifest *Manifest             //predlint:guardedby mu
}

// New returns an empty registry; its wall-time clock starts now.
func New() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    make(map[string]*spanStat),
	}
}

var defaultRegistry = New()

// Default returns the shared process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil (a valid no-op counter).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns nil (a valid no-op gauge).
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

// Histogram returns the named histogram, creating it with the given
// ascending bucket bounds on first use (later calls ignore bounds). A nil
// registry returns nil (a valid no-op histogram).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(h.bounds))
		r.hists[name] = h
	}
	return h
}

// SetManifest attaches run-identity metadata to the registry; it is
// embedded in every snapshot. Safe on a nil registry.
func (r *Registry) SetManifest(m Manifest) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.manifest = &m
	r.mu.Unlock()
}

// Wall returns the time elapsed since the registry was created.
func (r *Registry) Wall() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// sortedKeys returns the map's keys in sorted order — every exporter
// iterates metrics in this deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
