// Package readcache implements a bounded read-through block cache in
// front of a slower blockdev.Device — typically a remote one, where
// every miss costs an fsrpc round trip (DESIGN.md §14.4). The cache
// holds LineSize lines, at most Lines of them, under LRU eviction; writes
// go through to the lower device and invalidate overlapping lines, so the
// cache never holds data the lower device does not. Effectiveness is
// observable as the `readcache.hit` / `readcache.miss` / `readcache.evict`
// counters.
package readcache

import (
	"container/list"
	"sync"

	"betrfs/internal/blockdev"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
)

const (
	// LineSize is the cache line size in bytes. Reads that span lines
	// fill each covered line independently.
	LineSize = 64 << 10
	// Lines bounds the number of resident lines (4 MiB in all).
	Lines = 64
)

// Dev is the caching wrapper. It is itself a blockdev.Device whose
// commands are synchronous: SubmitRead and SubmitWrite run at once and
// complete at the current simulated time.
type Dev struct {
	env      *sim.Env
	lower    blockdev.Device
	lineSize int64
	maxLines int
	size     int64

	mu    sync.Mutex
	lines map[int64]*list.Element // line index → lru element
	lru   *list.List              // front = most recent; values are *line

	mHit   *metrics.Counter
	mMiss  *metrics.Counter
	mEvict *metrics.Counter
}

type line struct {
	idx  int64
	data []byte // len ≤ lineSize (tail line is clamped to device size)
}

// New wraps lower with a read cache, registering the readcache.*
// counters in env's registry.
func New(env *sim.Env, lower blockdev.Device) *Dev {
	reg := env.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Dev{
		env:      env,
		lower:    lower,
		lineSize: LineSize,
		maxLines: Lines,
		size:     lower.Size(),
		lines:    make(map[int64]*list.Element),
		lru:      list.New(),
		mHit:     reg.Counter("readcache.hit"),
		mMiss:    reg.Counter("readcache.miss"),
		mEvict:   reg.Counter("readcache.evict"),
	}
}

// ReadAt serves p from cached lines, filling misses from the lower
// device a full line at a time (read-through).
func (d *Dev) ReadAt(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for n := 0; n < len(p); {
		pos := off + int64(n)
		idx := pos / d.lineSize
		lo := pos % d.lineSize
		want := int64(len(p) - n)
		if max := d.lineSize - lo; want > max {
			want = max
		}
		ln, err := d.lineLocked(idx)
		if err != nil {
			return err
		}
		if lo+want > int64(len(ln.data)) {
			// Read past the clamped tail line: beyond the device; let the
			// lower device produce its own out-of-range behavior.
			if err := d.lower.ReadAt(p[n:n+int(want)], pos); err != nil {
				return err
			}
		} else {
			copy(p[n:n+int(want)], ln.data[lo:lo+want])
		}
		n += int(want)
	}
	return nil
}

// lineLocked returns the cached line idx, filling it from the lower
// device on a miss and evicting the LRU line when over bound.
func (d *Dev) lineLocked(idx int64) (*line, error) {
	if e, ok := d.lines[idx]; ok {
		d.mHit.Inc()
		d.lru.MoveToFront(e)
		return e.Value.(*line), nil
	}
	d.mMiss.Inc()
	start := idx * d.lineSize
	n := d.lineSize
	if start+n > d.size {
		n = d.size - start
	}
	if n <= 0 {
		// Entirely past the end: cache an empty line; reads here fall
		// through to the lower device's own range handling.
		ln := &line{idx: idx}
		d.insertLocked(ln)
		return ln, nil
	}
	buf := make([]byte, n)
	// The lock is held across the (possibly remote) fill: dropping it
	// would let a concurrent write invalidate the line mid-fill and the
	// stale fill would then be inserted over it.
	if err := d.lower.ReadAt(buf, start); err != nil {
		return nil, err
	}
	ln := &line{idx: idx, data: buf}
	d.insertLocked(ln)
	return ln, nil
}

func (d *Dev) insertLocked(ln *line) {
	d.lines[ln.idx] = d.lru.PushFront(ln)
	for d.lru.Len() > d.maxLines {
		e := d.lru.Back()
		victim := e.Value.(*line)
		d.lru.Remove(e)
		delete(d.lines, victim.idx)
		d.mEvict.Inc()
	}
}

// WriteAt writes through to the lower device and invalidates every
// overlapping cached line.
func (d *Dev) WriteAt(p []byte, off int64) error {
	if err := d.lower.WriteAt(p, off); err != nil {
		return err
	}
	d.invalidate(off, int64(len(p)))
	return nil
}

// SubmitRead runs the read now and completes when it returns.
func (d *Dev) SubmitRead(p []byte, off int64) blockdev.Completion {
	err := d.ReadAt(p, off)
	return blockdev.Completion{At: d.env.Now(), Err: err}
}

// SubmitWrite runs the write now and completes when it returns.
func (d *Dev) SubmitWrite(p []byte, off int64) blockdev.Completion {
	err := d.WriteAt(p, off)
	return blockdev.Completion{At: d.env.Now(), Err: err}
}

// Wait returns c's outcome; the command already ran at submission.
func (d *Dev) Wait(c blockdev.Completion) error { return c.Err }

// Discard forwards the TRIM and invalidates overlapping lines, so the
// deterministic read-after-TRIM zeroes are re-fetched, not stale cache.
func (d *Dev) Discard(off, length int64) error {
	if err := d.lower.Discard(off, length); err != nil {
		return err
	}
	d.invalidate(off, length)
	return nil
}

func (d *Dev) invalidate(off, length int64) {
	if length <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for idx := off / d.lineSize; idx <= (off+length-1)/d.lineSize; idx++ {
		if e, ok := d.lines[idx]; ok {
			d.lru.Remove(e)
			delete(d.lines, idx)
		}
	}
}

func (d *Dev) Flush() error { return d.lower.Flush() }

func (d *Dev) Size() int64 { return d.size }
