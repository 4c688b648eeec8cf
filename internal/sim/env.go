package sim

import (
	"sync/atomic"
	"time"

	"betrfs/internal/metrics"
)

// Env bundles the shared clock, cost table, and random source handed to
// every simulated component. One Env corresponds to one machine.
type Env struct {
	Clock *Clock
	Costs Costs
	Rand  *Rand

	// Metrics is the machine's observability registry: every layer
	// registers its counters and histograms here at construction time.
	// Recording metrics never advances the clock (the metrics package has
	// no access to it), so instrumentation cannot perturb results.
	Metrics *metrics.Registry

	// Pool is the machine's bounded background-worker pool. With a single
	// worker (the default) every submitted task runs inline at its
	// submission point, which keeps single-goroutine simulations
	// bit-identical; with more workers, tasks run on goroutines. See
	// DESIGN.md §9.
	Pool *WorkerPool

	// Stats accumulates coarse CPU accounting by category so experiments
	// can report where simulated time went. Updates are atomic adds, so
	// concurrent components may charge freely; because adds commute, the
	// totals are deterministic for a given workload.
	Stats CPUStats
}

// CPUStats tallies simulated CPU time by broad category. Fields are
// updated with atomic adds; read them after concurrent work has drained
// (or via Total, which loads atomically).
type CPUStats struct {
	Memcpy    time.Duration
	Checksum  time.Duration
	Compare   time.Duration
	Serialize time.Duration
	Alloc     time.Duration
	Other     time.Duration
}

// addDur atomically adds d to the duration at p. time.Duration's
// underlying type is int64, so the pointer conversion is well-defined.
func addDur(p *time.Duration, d time.Duration) {
	atomic.AddInt64((*int64)(p), int64(d))
}

// Total returns the total CPU time across categories.
func (s *CPUStats) Total() time.Duration {
	var sum int64
	for _, p := range []*time.Duration{&s.Memcpy, &s.Checksum, &s.Compare, &s.Serialize, &s.Alloc, &s.Other} {
		sum += atomic.LoadInt64((*int64)(p))
	}
	return time.Duration(sum)
}

// NewEnv returns an environment with default costs and the given seed. The
// worker pool starts with one worker (deterministic inline mode); call
// Pool.SetWorkers to enable background concurrency.
func NewEnv(seed uint64) *Env {
	e := &Env{
		Clock:   NewClock(),
		Costs:   DefaultCosts(),
		Rand:    NewRand(seed),
		Metrics: metrics.NewRegistry(),
	}
	e.Pool = NewWorkerPool(e, 1)
	return e
}

// Now returns the current simulated time.
func (e *Env) Now() time.Duration { return e.Clock.Now() }

// Trace emits one typed trace event stamped with the current simulated time,
// if tracing is enabled on this environment's registry. The check is a single
// atomic load, so disabled tracing costs nothing on hot paths, and emission
// never advances the clock.
func (e *Env) Trace(layer, op, key string, value int64) {
	if e.Metrics != nil && e.Metrics.Tracing() {
		e.Metrics.Emit(metrics.Event{When: e.Now(), Layer: layer, Op: op, Key: key, Value: value})
	}
}

// Charge advances the clock by a fixed CPU cost.
func (e *Env) Charge(d time.Duration) {
	e.Clock.Advance(d)
	addDur(&e.Stats.Other, d)
}

func psCost(bytes int, psPerByte int64) time.Duration {
	return time.Duration(int64(bytes) * psPerByte / 1000)
}

// Memcpy charges for copying n bytes.
func (e *Env) Memcpy(n int) {
	d := psCost(n, e.Costs.MemcpyPsPerByte)
	e.Clock.Advance(d)
	addDur(&e.Stats.Memcpy, d)
}

// Checksum charges for checksumming n bytes.
func (e *Env) Checksum(n int) {
	d := psCost(n, e.Costs.ChecksumPsPerByte)
	e.Clock.Advance(d)
	addDur(&e.Stats.Checksum, d)
}

// Serialize charges for encoding or decoding n bytes of structured data.
func (e *Env) Serialize(n int) {
	d := psCost(n, e.Costs.SerializePsPerByte)
	e.Clock.Advance(d)
	addDur(&e.Stats.Serialize, d)
}

// Compare charges for one key comparison that inspected n bytes.
func (e *Env) Compare(n int) {
	d := e.Costs.CompareBase + psCost(n, e.Costs.ComparePsPerByte)
	e.Clock.Advance(d)
	addDur(&e.Stats.Compare, d)
}

// ChargeAlloc advances the clock by an allocation-related CPU cost.
func (e *Env) ChargeAlloc(d time.Duration) {
	e.Clock.Advance(d)
	addDur(&e.Stats.Alloc, d)
}

// CompareBulk charges for n key comparisons of avgLen bytes each in one
// arithmetic step. Components use it when an algorithm's comparison count
// is known in closed form (e.g. PacMan's quadratic scan), so the simulated
// cost stays faithful without the host looping pair by pair.
func (e *Env) CompareBulk(n int, avgLen int) {
	if n <= 0 {
		return
	}
	d := time.Duration(n)*e.Costs.CompareBase + psCost(n*avgLen, e.Costs.ComparePsPerByte)
	e.Clock.Advance(d)
	addDur(&e.Stats.Compare, d)
}
