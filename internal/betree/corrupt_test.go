package betree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/kmem"
	"betrfs/internal/metrics/metricstest"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
)

// corruptStore builds a store whose device and SFL layout are exposed, so
// tests can flip bits under specific node extents.
func corruptStore(t testing.TB, mutate func(*Config)) (*sim.Env, *blockdev.Dev, *sfl.SFL, *Store) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, berr := sfl.NewDefault(env, dev)
	if berr != nil {
		panic(berr)
	}
	cfg := DefaultConfig()
	cfg.NodeSize = 64 << 10
	cfg.BasementSize = 4 << 10
	cfg.Fanout = 8
	cfg.CacheBytes = 8 << 20
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Open(env, kmem.New(env, true), cfg, backend)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return env, dev, backend, s
}

// devOffset translates a tree-file-relative extent offset to a device
// offset using the SFL's static layout.
func devOffset(backend *sfl.SFL, tree string, off int64) int64 {
	return backend.DevOffset(tree, off)
}

// largestLeaf returns the scrub report of the biggest data-tree leaf —
// corrupting an interior node (in particular the root) would take down
// every descent, which is not what these tests want to observe.
func largestLeaf(t *testing.T, s *Store) ScrubReport {
	t.Helper()
	var victim ScrubReport
	for _, r := range s.Scrub() {
		if r.Tree != "data" || r.Len <= victim.Len {
			continue
		}
		n, err := s.readNode(s.data, nodeID(r.ID), nil)
		if err != nil {
			t.Fatalf("read node %d: %v", r.ID, err)
		}
		if n.isLeaf() {
			victim = r
		}
	}
	if victim.Len == 0 {
		t.Fatal("no data-tree leaves on disk")
	}
	return victim
}

func TestScrubCleanStore(t *testing.T) {
	_, _, _, s := corruptStore(t, nil)
	for i := 0; i < 3000; i++ {
		s.Data().Put(k(i), v(i, 128), LogAuto)
	}
	s.Checkpoint()
	reports := s.Scrub()
	if len(reports) < 4 {
		t.Fatalf("scrub saw only %d nodes", len(reports))
	}
	for _, r := range reports {
		if r.Err != nil {
			t.Fatalf("clean store: %s node %d failed scrub: %v", r.Tree, r.ID, r.Err)
		}
	}
}

// TestCorruptionSurfacesErrChecksum flips bits under a data-tree leaf and
// checks the full chain: Scrub pinpoints the node, reads surface a typed
// ErrChecksum instead of garbage, nothing panics, and untouched nodes stay
// readable.
func TestCorruptionSurfacesErrChecksum(t *testing.T) {
	_, dev, backend, s := corruptStore(t, nil)
	const nkeys = 3000
	for i := 0; i < nkeys; i++ {
		s.Data().Put(k(i), v(i, 128), LogAuto)
	}
	s.DropCleanCaches()

	victim := largestLeaf(t, s)
	dev.CorruptFlip(devOffset(backend, "data", victim.Off), victim.Len, 42)
	s.DropCleanCaches() // force the next reads to hit the corrupted image

	var checksumErrs, okReads int
	for i := 0; i < nkeys; i++ {
		val, ok, err := s.Data().Get(k(i))
		switch {
		case err != nil:
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("key %d: error is not ErrChecksum: %v", i, err)
			}
			checksumErrs++
		case ok:
			if !bytes.Equal(val, v(i, 128)) {
				t.Fatalf("key %d: silent wrong data", i)
			}
			okReads++
		}
	}
	if checksumErrs == 0 {
		t.Fatal("no Get surfaced ErrChecksum after corrupting a leaf")
	}
	if okReads == 0 {
		t.Fatal("corruption of one node took out every key")
	}

	corrupt := 0
	for _, r := range s.Scrub() {
		if r.Corrupt() {
			corrupt++
			if r.Tree != "data" {
				t.Fatalf("scrub flagged %s node %d, corruption was in data tree", r.Tree, r.ID)
			}
		} else if r.Err != nil {
			t.Fatalf("unexpected scrub error: %v", r.Err)
		}
	}
	if corrupt != 1 {
		t.Fatalf("scrub flagged %d nodes, want exactly the 1 corrupted", corrupt)
	}
}

// TestCompressionFramedLeafIsCorrupt writes the framing of the deleted
// node-compression format (magic 0xc0dec0de, a zero compressed length and
// a raw length of 0xfffffff0) over the first 12 bytes of a leaf's extent.
// Nodes have one format, so Scrub and a cold Get must both report the
// image as corrupt, and neither may size a buffer from the bogus length.
func TestCompressionFramedLeafIsCorrupt(t *testing.T) {
	// With the collector off, a buffer sized from the bogus length is
	// counted but never reused, so it is never zeroed and stays untouched.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, dev, backend, s := corruptStore(t, nil)
	for i := 0; i < 3000; i++ {
		s.Data().Put(k(i), v(i, 128), LogAuto)
	}
	s.DropCleanCaches()
	victim := largestLeaf(t, s)
	leaf, err := s.readNode(s.data, nodeID(victim.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	key := leafEntries(leaf)[0].key
	var frame [12]byte
	binary.BigEndian.PutUint32(frame[0:], 0xc0dec0de)
	binary.BigEndian.PutUint32(frame[8:], 0xfffffff0)
	if err := dev.WriteAt(frame[:], devOffset(backend, "data", victim.Off)); err != nil {
		t.Fatal(err)
	}
	s.DropCleanCaches()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	var scrubErr error
	for _, r := range s.Scrub() {
		if r.Tree == victim.Tree && r.ID == victim.ID {
			scrubErr = r.Err
		}
	}
	_, _, getErr := s.Data().Get(key)
	runtime.ReadMemStats(&ms)
	if !errors.Is(scrubErr, ErrChecksum) {
		t.Errorf("scrub of the framed leaf: %v, want ErrChecksum", scrubErr)
	}
	if !errors.Is(getErr, ErrChecksum) {
		t.Errorf("cold get from the framed leaf: %v, want ErrChecksum", getErr)
	}
	if grew := ms.TotalAlloc - before; grew >= 64<<20 {
		t.Errorf("scrub and get allocated %d MiB", grew>>20)
	}
}

// TestTornNodeDetected zeroes the tail half of a node image — the shape a
// torn write leaves behind — and checks the whole-image checksum rejects
// it with ErrChecksum rather than decoding a partial node.
func TestTornNodeDetected(t *testing.T) {
	_, dev, backend, s := corruptStore(t, nil)
	for i := 0; i < 3000; i++ {
		s.Data().Put(k(i), v(i, 128), LogAuto)
	}
	s.DropCleanCaches()
	victim := largestLeaf(t, s)
	dev.CorruptZero(devOffset(backend, "data", victim.Off+victim.Len/2), victim.Len-victim.Len/2)
	s.DropCleanCaches()

	err := s.verifyExtent(s.data, nodeID(victim.ID), extent{off: victim.Off, len: victim.Len})
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("torn node image not caught by checksum: %v", err)
	}
	sawErr := false
	for i := 0; i < 3000; i++ {
		if _, _, err := s.Data().Get(k(i)); err != nil {
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("key %d: %v", i, err)
			}
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("no read noticed the torn node")
	}
}

// TestScanSurfacesCorruption checks the range-scan path propagates
// checksum failures instead of silently truncating.
func TestScanSurfacesCorruption(t *testing.T) {
	_, dev, backend, s := corruptStore(t, nil)
	for i := 0; i < 3000; i++ {
		s.Data().Put(k(i), v(i, 128), LogAuto)
	}
	s.DropCleanCaches()
	victim := largestLeaf(t, s)
	dev.CorruptFlip(devOffset(backend, "data", victim.Off), victim.Len, 7)
	s.DropCleanCaches()
	err := s.Data().Scan(k(0), k(3000), func(_, _ []byte) bool { return true })
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("scan over corrupted leaf returned %v, want ErrChecksum", err)
	}
}

// TestBasementChecksumOnPartialRead first flips one bit in transfer, once:
// the basement checksum catches it and the re-read, into the same pooled
// image of the basement's size class, returns the right value. It then corrupts
// bytes beyond the header region of a large leaf on the medium, so the
// shell still verifies and the damage is only visible to the per-basement
// checksums used by basement-granular partial reads.
func TestBasementChecksumOnPartialRead(t *testing.T) {
	_, dev, backend, s := corruptStore(t, func(c *Config) {
		c.NodeSize = 128 << 10
		c.BasementSize = 4 << 10
		c.CacheBytes = 64 << 20
	})
	tr := s.Data()
	const nkeys = 4000
	for i := 0; i < nkeys; i++ {
		tr.Put(k(i), v(i, 128), LogAuto)
	}
	s.DropCleanCaches()
	tr.SetSeqHint(false)

	victim := largestLeaf(t, s)
	if victim.Len <= headerRegion {
		t.Skipf("largest leaf (%d bytes) fits in the header region", victim.Len)
	}

	leaf, err := s.readNode(tr, nodeID(victim.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	b := leaf.basements[len(leaf.basements)-1]
	want := b.entries[len(b.entries)/2]
	inner := tr.f
	var bufs []*byte
	tr.f = &tapFile{File: inner, onRead: func(p []byte, off int64) {
		if off != victim.Off+int64(b.diskOff) {
			return
		}
		if want := 1 << bits.Len(uint(b.diskLen+b.pageLen-1)); cap(p) != want {
			t.Errorf("basement read into a %d-byte buffer, want the %d-byte image class", cap(p), want)
		}
		bufs = append(bufs, &p[0])
		if len(bufs) == 1 {
			p[len(p)/2] ^= 0x10
		}
	}}
	retried := s.m.retryCorrupt.Load()
	got, ok, err := tr.Get(want.key)
	tr.f = inner
	if err != nil || !ok || !bytes.Equal(got, want.val.Bytes()) {
		t.Fatalf("Get after a one-shot bit flip: ok=%v err=%v", ok, err)
	}
	if n := s.m.retryCorrupt.Load() - retried; n != 1 {
		t.Fatalf("io.retry.corrupt rose by %d, want 1", n)
	}
	if len(bufs) != 2 || bufs[0] != bufs[1] {
		t.Fatalf("basement read %d times, want a read and a re-read into the same buffer", len(bufs))
	}
	// Corrupt everything past the header region: shell CRC stays valid,
	// basement CRCs do not.
	dev.CorruptFlip(devOffset(backend, "data", victim.Off+headerRegion), victim.Len-headerRegion, 9)
	s.DropCleanCaches()
	tr.SetSeqHint(false)

	partialBefore := metricstest.Counter(t, s.env.Metrics, "betree.node.partialread")
	var checksumErrs int
	for i := 0; i < nkeys; i++ {
		_, _, err := tr.Get(k(i))
		if err != nil {
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("key %d: %v", i, err)
			}
			checksumErrs++
		}
	}
	if metricstest.Counter(t, s.env.Metrics, "betree.node.partialread") == partialBefore {
		t.Fatal("cold point queries never took the partial-read path")
	}
	if checksumErrs == 0 {
		t.Fatal("basement corruption went undetected on partial reads")
	}
}

// TestAlignedValuePartialRead covers the page-sharing section on the
// basement-granular read path: values >= alignedValueMin live in the
// 4KiB-aligned tail of the node, and resolving them during a partial read
// needs the pageBase captured from the verified header. A wrong base would
// either fail the basement checksum or return different bytes.
func TestAlignedValuePartialRead(t *testing.T) {
	_, _, _, s := corruptStore(t, func(c *Config) {
		c.NodeSize = 256 << 10
		c.BasementSize = 4 << 10
		c.CacheBytes = 64 << 20
	})
	tr := s.Data()
	const nkeys = 200
	big := func(i int) []byte {
		b := bytes.Repeat([]byte{byte(i + 1)}, alignedValueMin+512)
		copy(b, fmt.Sprintf("val-%06d", i))
		return b
	}
	for i := 0; i < nkeys; i++ {
		tr.Put(k(i), big(i), LogAuto)
	}
	s.DropCleanCaches()
	tr.SetSeqHint(false)
	partialBefore := metricstest.Counter(t, s.env.Metrics, "betree.node.partialread")
	for i := 0; i < nkeys; i += 17 {
		val, ok, err := tr.Get(k(i))
		if err != nil || !ok {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(val, big(i)) {
			t.Fatalf("key %d: aligned value decoded wrong on partial read", i)
		}
	}
	if metricstest.Counter(t, s.env.Metrics, "betree.node.partialread") == partialBefore {
		t.Skip("no partial reads issued (aligned values spilled the shell past the header region)")
	}
}

// TestOpenAfterSuperblockCorruption corrupts the newest superblock slot
// and checks Open falls back to the older generation instead of failing.
func TestOpenAfterSuperblockCorruption(t *testing.T) {
	env, dev, backend, s := corruptStore(t, nil)
	for i := 0; i < 500; i++ {
		s.Data().Put(k(i), v(i, 64), LogAuto)
	}
	s.Checkpoint() // generation G
	for i := 500; i < 1000; i++ {
		s.Data().Put(k(i), v(i, 64), LogAuto)
	}
	s.Checkpoint() // generation G+1 in the other slot

	// Corrupt the newest slot (generation parity picks the slot).
	slot := int64(s.generation%2) * (4 << 20)
	dev.CorruptFlip(slot+64, 256, 3)

	s2, err := Open(env, kmem.New(env, true), s.cfg, backend)
	if err != nil {
		t.Fatalf("open after superblock corruption: %v", err)
	}
	// The older generation predates keys 500..999 being checkpointed, but
	// they were logged, so replay must bring them back.
	for i := 0; i < 1000; i++ {
		val, ok, err := s2.Data().Get(k(i))
		if err != nil || !ok || !bytes.Equal(val, v(i, 64)) {
			t.Fatalf("key %d lost after superblock fallback (ok=%v err=%v)", i, ok, err)
		}
	}
}
