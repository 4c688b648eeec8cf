package blockdev

// Crash and fault injection.
//
// When tracking is enabled, the device records both the prior contents
// (pre-image) and the written bytes (post-image) of every write issued
// since the last Flush barrier. A crash is then simulated by choosing
// which of those unflushed writes survive:
//
//   - Crash(keep): the first keep writes survive, the rest revert — a
//     volatile cache that drains strictly in order.
//   - CrashTorn(keep, tornBytes): like Crash, but write #keep is torn —
//     only its first tornBytes bytes persist. Models a sector write
//     interrupted by power loss.
//   - CrashSubset(survive): an arbitrary subset of unflushed writes
//     survives — a cache that drains out of order.
//
// Separately, the corruption injectors (CorruptZero, CorruptFlip) mutate
// stored bytes directly, modeling bit-rot and latent sector errors that a
// flush cannot prevent. For faults that surface as I/O errors (EIO at the
// mount API) — bad sectors, transient failures, write death — wrap the
// device in a FaultDev (see fault.go), which drives the error returns the
// Device interface carries.
//
// Post-crash semantics (auto re-arm): every crash entry point clears the
// unflushed log but leaves tracking ENABLED, with the post-crash state as
// the new baseline — exactly like a freshly powered-on disk whose media
// content is whatever survived. Callers can mount, run more traffic, and
// crash again without calling EnableCrashTracking a second time.

type writeRecord struct {
	off int64
	old []byte // pre-image (contents before the write)
	new []byte // post-image (the written bytes)
}

// EnableCrashTracking starts recording pre- and post-images of unflushed
// writes so the Crash* entry points can choose which survive. Intended
// for tests; it has a memory cost proportional to write traffic between
// flushes. Calling it again resets the unflushed log to empty.
func (d *Dev) EnableCrashTracking() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.trackUnflushed = true
	d.unflushed = d.unflushed[:0]
}

func (d *Dev) recordUnflushed(p []byte, off int64) {
	old := make([]byte, len(p))
	d.copyOut(old, off)
	nw := make([]byte, len(p))
	copy(nw, p)
	d.unflushed = append(d.unflushed, writeRecord{off: off, old: old, new: nw})
}

// UnflushedWrites reports how many writes are revertible right now.
func (d *Dev) UnflushedWrites() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.unflushed)
}

// UnflushedWriteLen reports the byte length of unflushed write i, letting
// harnesses enumerate torn-write cut points.
func (d *Dev) UnflushedWriteLen(i int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.unflushed[i].new)
}

// Crash reverts all unflushed writes from index keep onward (so the first
// keep unflushed writes survive, emulating a partially drained device
// cache that destages in submission order). The device remains usable, as
// a freshly powered-on disk would be; tracking stays armed with the
// post-crash state as the new baseline (see the package comment on auto
// re-arm).
func (d *Dev) Crash(keep int) {
	d.CrashTorn(keep, 0)
}

// CrashTorn is Crash with one torn write: the first keep unflushed writes
// survive in full, write #keep persists only its first tornBytes bytes,
// and everything after is reverted. tornBytes == 0 (or keep beyond the
// unflushed log) degenerates to Crash(keep).
func (d *Dev) CrashTorn(keep, tornBytes int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.trackUnflushed {
		panic("blockdev: Crash without EnableCrashTracking")
	}
	if keep < 0 {
		keep = 0
	}
	if keep > len(d.unflushed) {
		keep = len(d.unflushed)
	}
	// Revert in reverse order so overlapping writes restore correctly.
	for i := len(d.unflushed) - 1; i >= keep; i-- {
		r := d.unflushed[i]
		d.copyIn(r.old, r.off)
	}
	if keep < len(d.unflushed) && tornBytes > 0 {
		r := d.unflushed[keep]
		if tornBytes > len(r.new) {
			tornBytes = len(r.new)
		}
		d.copyIn(r.new[:tornBytes], r.off)
	}
	d.postCrash()
}

// CrashSubset models a volatile cache that drains out of order: an
// arbitrary subset of the unflushed writes survives. survive[i] selects
// unflushed write i; indexes beyond len(survive) do not survive. When two
// surviving writes overlap, the later submission wins (the cache holds
// the newest version of a sector). Tracking stays armed afterwards, as
// with Crash.
func (d *Dev) CrashSubset(survive []bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.trackUnflushed {
		panic("blockdev: Crash without EnableCrashTracking")
	}
	// Revert everything back to the last-flushed state, then replay the
	// survivors in submission order.
	for i := len(d.unflushed) - 1; i >= 0; i-- {
		r := d.unflushed[i]
		d.copyIn(r.old, r.off)
	}
	for i, r := range d.unflushed {
		if i < len(survive) && survive[i] {
			d.copyIn(r.new, r.off)
		}
	}
	d.postCrash()
}

// postCrash resets device state after a simulated power cycle. The
// unflushed log is cleared but tracking remains enabled (auto re-arm):
// the surviving media content is the new durable baseline.
func (d *Dev) postCrash() {
	d.unflushed = d.unflushed[:0]
	d.readEnd = 0
	d.writeEnd = 0
	d.cacheDirty = 0
}

// CorruptZero zeroes n stored bytes at off, modeling a latent sector
// error or lost write that a flush cannot prevent. It bypasses timing,
// stats, and crash tracking: the corruption is on the media itself.
func (d *Dev) CorruptZero(off, n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(int(n), off, "corrupt")
	d.copyIn(make([]byte, n), off)
}

// CorruptFlip flips pseudo-random bits (about one per byte, position
// derived from seed) across n stored bytes at off, modeling bit-rot.
// Deterministic for a given (off, n, seed).
func (d *Dev) CorruptFlip(off, n int64, seed uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(int(n), off, "corrupt")
	buf := make([]byte, n)
	d.copyOut(buf, off)
	x := seed | 1
	for i := range buf {
		// xorshift64* — cheap deterministic bit selection.
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		buf[i] ^= 1 << ((x * 2685821657736338717) >> 61)
	}
	d.copyIn(buf, off)
}
