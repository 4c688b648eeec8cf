package readcache

import (
	"bytes"
	"errors"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/ftl"
	"betrfs/internal/ioerr"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
)

// blockSize is the simulated devices' I/O granularity.
const blockSize = 4096

// build stacks a cache of lines lines of lineSize bytes over a fresh
// device; the small sizes are what make eviction observable.
func build(t *testing.T, lineSize int64, lines int) (*Dev, *blockdev.Dev, *metrics.Registry) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(2048))
	c := New(env, dev)
	c.lineSize, c.maxLines = lineSize, lines
	return c, dev, env.Metrics
}

func counters(reg *metrics.Registry) (hit, miss, evict int64) {
	s := reg.Snapshot()
	return s.Counters["readcache.hit"], s.Counters["readcache.miss"], s.Counters["readcache.evict"]
}

// TestReadThroughAndHit pins the core contract: the first read of a line
// misses and fills from the lower device, a re-read within the same line
// hits without touching the device.
func TestReadThroughAndHit(t *testing.T) {
	c, dev, reg := build(t, 64<<10, 8)
	payload := bytes.Repeat([]byte{0xaa}, blockSize)
	if err := c.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := c.ReadAt(got, 0); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("first read: %v", err)
	}
	if hit, miss, _ := counters(reg); hit != 0 || miss != 1 {
		t.Fatalf("after fill: hit=%d miss=%d", hit, miss)
	}
	devReads := dev.Stats().Reads
	// Same line, different block: must be served from cache.
	if err := c.ReadAt(got, 4*blockSize); err != nil {
		t.Fatal(err)
	}
	if hit, miss, _ := counters(reg); hit != 1 || miss != 1 {
		t.Fatalf("after re-read: hit=%d miss=%d", hit, miss)
	}
	if dev.Stats().Reads != devReads {
		t.Fatal("cache hit touched the device")
	}
}

// TestWriteInvalidates: a write through the cache must invalidate the
// overlapping line, so the next read sees the new bytes (re-fetched),
// never a stale cached copy.
func TestWriteInvalidates(t *testing.T) {
	c, _, reg := build(t, 64<<10, 8)
	old := bytes.Repeat([]byte{1}, blockSize)
	if err := c.WriteAt(old, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := c.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	neu := bytes.Repeat([]byte{2}, blockSize)
	if err := c.WriteAt(neu, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadAt(got, 0); err != nil || !bytes.Equal(got, neu) {
		t.Fatalf("stale read after write-through: %v", err)
	}
	if _, miss, _ := counters(reg); miss != 2 {
		t.Fatalf("invalidation should force a re-fill: miss=%d", miss)
	}
}

// TestDiscardInvalidates: TRIM through the cache forwards to the lower
// device and drops the cached lines, so read-after-TRIM returns the
// deterministic zeroes.
func TestDiscardInvalidates(t *testing.T) {
	c, dev, _ := build(t, 64<<10, 8)
	payload := bytes.Repeat([]byte{3}, blockSize)
	if err := c.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := c.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Discard(0, blockSize); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().Discards != 1 {
		t.Fatalf("discard not forwarded: %+v", dev.Stats())
	}
	if err := c.ReadAt(got, 0); err != nil || !bytes.Equal(got, make([]byte, len(got))) {
		t.Fatalf("read after TRIM not zeroed: %v", err)
	}
}

// TestBoundedEviction: the cache never holds more than maxLines lines;
// the LRU line is evicted and counted.
func TestBoundedEviction(t *testing.T) {
	const lineSize = 64 << 10
	c, _, reg := build(t, lineSize, 2)
	buf := make([]byte, blockSize)
	for i := int64(0); i < 4; i++ {
		if err := c.ReadAt(buf, i*lineSize); err != nil {
			t.Fatal(err)
		}
	}
	hit, miss, evict := counters(reg)
	if miss != 4 || evict != 2 || hit != 0 {
		t.Fatalf("eviction accounting: hit=%d miss=%d evict=%d", hit, miss, evict)
	}
	// Lines 2 and 3 are resident; 0 was evicted and must miss again.
	if err := c.ReadAt(buf, 3*lineSize); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	hit, miss, evict = counters(reg)
	if hit != 1 || miss != 5 || evict != 3 {
		t.Fatalf("LRU order: hit=%d miss=%d evict=%d", hit, miss, evict)
	}
}

// TestTailLineClamp: the device's last line is shorter than a full line;
// a read inside it must still fill and serve correctly.
func TestTailLineClamp(t *testing.T) {
	// A scaled EVO is not line-aligned in general; pick a line size that
	// leaves a ragged tail.
	c, dev, _ := build(t, 48<<10, 4)
	size := dev.Size()
	tail := size - blockSize
	payload := bytes.Repeat([]byte{9}, blockSize)
	if err := c.WriteAt(payload, tail); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockSize)
	if err := c.ReadAt(got, tail); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("tail read: %v", err)
	}
}

// TestSubmitCompletesAtNow: the cache has no asynchronous submission, so
// Submit* run the command at once and complete at the current simulated
// time, and Wait neither moves the clock nor loses the outcome.
func TestSubmitCompletesAtNow(t *testing.T) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(256))
	c := New(env, dev)
	payload := bytes.Repeat([]byte{7}, blockSize)
	w := c.SubmitWrite(payload, 0)
	if w.At != env.Now() {
		t.Fatalf("write completion at %v, now %v", w.At, env.Now())
	}
	if err := c.Wait(w); err != nil {
		t.Fatalf("wait: %v", err)
	}
	got := make([]byte, len(payload))
	r := c.SubmitRead(got, 0)
	now := env.Now()
	if r.At != now || c.Wait(r) != nil || env.Now() != now || !bytes.Equal(got, payload) {
		t.Fatalf("read completion at %v (now %v), data ok %v", r.At, now, bytes.Equal(got, payload))
	}
	if c.Size() != dev.Size() {
		t.Fatalf("size = %d, want %d", c.Size(), dev.Size())
	}
}

// TestDiscardForwarding is the TRIM-accounting regression guard: a
// Discard through the cache must traverse the retry/fault composition
// and reach the FTL's trim ledger and the raw device, exactly as it does
// when a file system holds the device directly.
func TestDiscardForwarding(t *testing.T) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(256))
	fdev := ftl.New(env, dev, ftl.DefaultConfig())
	faulted := blockdev.NewFault(env, fdev, blockdev.FaultPlan{Seed: 1})
	retried := blockdev.WithRetry(env, faulted, blockdev.DefaultRetryPolicy())

	length := int64(8 * blockSize)
	if err := New(env, retried).Discard(length, length); err != nil {
		t.Fatalf("discard through the cache: %v", err)
	}
	if dev.Stats().Discards != 1 || dev.Stats().BytesDiscarded != length {
		t.Fatalf("discard did not reach the raw device: %+v", dev.Stats())
	}
	snap := env.Metrics.Snapshot()
	if snap.Counters["ftl.trim.count"] != 1 || snap.Counters["ftl.trim.bytes"] != length {
		t.Fatalf("discard did not reach the FTL ledger: trim.count=%d trim.bytes=%d",
			snap.Counters["ftl.trim.count"], snap.Counters["ftl.trim.bytes"])
	}
}

// nospaceDev fails every write with ENOSPC.
type nospaceDev struct{ blockdev.Device }

func (nospaceDev) WriteAt(p []byte, off int64) error { return ioerr.ErrNoSpace }

// TestErrNoSpaceSentinel: a lower device's ENOSPC reaches the caller
// through the cache as the same sentinel.
func TestErrNoSpaceSentinel(t *testing.T) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(256))
	c := New(env, nospaceDev{dev})
	err := c.Wait(c.SubmitWrite(make([]byte, blockSize), 0))
	if !errors.Is(err, ioerr.ErrNoSpace) {
		t.Fatalf("cache write error = %v, want ENOSPC", err)
	}
	if dev.Stats().BytesWritten != 0 {
		t.Fatal("failed write reached the device")
	}
}
