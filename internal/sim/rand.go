package sim

import "sync"

// Rand is a small, fast, deterministic pseudo-random source
// (xorshift64star). The standard library's math/rand would also work, but a
// local implementation keeps the sequence stable across Go releases, which
// matters for reproducible experiment output.
//
// Draws are serialized by a mutex so concurrent components may share one
// source without racing; single-goroutine runs observe the exact same
// sequence as before the lock existed.
type Rand struct {
	mu    sync.Mutex
	state uint64
}

// NewRand returns a source seeded with seed (zero is remapped so the
// generator never degenerates to a fixed point).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next value in the sequence.
func (r *Rand) Uint64() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n called with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}
