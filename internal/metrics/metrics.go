// Package metrics is the dependency-free observability registry shared by
// every layer of the simulated stack. One Registry exists per sim.Env (and
// therefore per mounted system), holding three kinds of instruments:
//
//   - Counter: a monotonically increasing int64 (events, bytes).
//   - Gauge: a settable int64 level (occupancy, pinned counts).
//   - Histogram: a power-of-two-bucketed distribution of int64 samples
//     (request sizes in bytes, simulated latencies in nanoseconds).
//
// Names follow the `layer.noun.verb` convention (e.g. `betree.msg.inject`,
// `wal.fsync.count`); histograms end in a unit segment instead of a verb
// (`vfs.read.ns`, `kmem.alloc.bytes`). Layers resolve their instruments
// once at construction time and increment through the returned pointers, so
// the hot path is a single atomic add.
//
// Crucially, recording a metric never advances the simulated clock: the
// registry has no access to sim.Env and charges no costs, so enabling
// metrics (or tracing) cannot change any benchmark result.
//
// Snapshot captures the registry as plain maps for JSON output; Diff and
// Merge support before/after comparisons and aggregation across instances.
// A bounded ring buffer of typed trace events (see trace.go) can be enabled
// per registry for behavioral assertions in tests.
package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n should be non-negative; Counters are monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a settable level.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the level by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts samples v with 2^(i-1) < v <= 2^i (bucket 0 counts v <= 1).
const histBuckets = 64

// Histogram records a distribution in power-of-two buckets along with
// count, sum, and max. Observe is lock-free.
type Histogram struct {
	unit    string
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// bucketFor returns the power-of-two bucket index for v.
func bucketFor(v int64) int {
	if v <= 1 {
		return 0
	}
	b := 0
	for x := uint64(v - 1); x > 0; x >>= 1 {
		b++
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketFor(v)].Add(1)
}

// Registry holds the named instruments of one simulated machine.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	tracing atomic.Bool
	trace   *traceRing
}

// NewRegistry returns an empty registry with tracing disabled.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if
// needed. Callers keep the pointer; lookups are not for hot paths.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given unit label ("bytes", "ns") if needed.
func (r *Registry) Histogram(name, unit string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{unit: unit}
		r.histograms[name] = h
	}
	return h
}
