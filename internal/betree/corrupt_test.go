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
	"betrfs/internal/keys"
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

// interiorKeys is how many keys interiorStore writes.
const interiorKeys = 6000

// interiorStore fills a corruptStore's data tree to three levels, then
// overwrites every third key so that the partitions of its height-1 nodes
// buffer messages, and drops the caches. want gives each key's value.
func interiorStore(t *testing.T) (dev *blockdev.Dev, backend *sfl.SFL, s *Store, want func(i int) []byte) {
	t.Helper()
	_, dev, backend, s = corruptStore(t, nil)
	tr := s.Data()
	for i := 0; i < interiorKeys; i++ {
		if err := tr.Put(k(i), v(i, 128), LogAuto); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < interiorKeys; i += 3 {
		if err := tr.Put(k(i), v(i+7, 128), LogAuto); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	root := tr.mustFetch(tr.rootID)
	height := root.height
	tr.unpin(root)
	if height < 2 {
		t.Fatalf("data tree height %d, want at least 2", height)
	}
	want = func(i int) []byte {
		if i%3 == 0 {
			return v(i+7, 128)
		}
		return v(i, 128)
	}
	return dev, backend, s, want
}

// bufferedInterior returns a height-1 data-tree node read whole, its scrub
// report, and the index of the partition buffering the most messages.
func bufferedInterior(t *testing.T, s *Store) (*node, ScrubReport, int) {
	t.Helper()
	var best *node
	var rep ScrubReport
	bestCi := 0
	for _, r := range s.Scrub() {
		if r.Tree != "data" || nodeID(r.ID) == s.data.rootID {
			continue
		}
		n, err := s.readNode(s.data, nodeID(r.ID), nil)
		if err != nil {
			t.Fatalf("read node %d: %v", r.ID, err)
		}
		if n.height != 1 {
			continue
		}
		for ci := range n.bufs {
			if best == nil || n.bufs[ci].len() > best.bufs[bestCi].len() {
				best, rep, bestCi = n, r, ci
			}
		}
	}
	if best == nil || best.bufs[bestCi].len() == 0 {
		t.Fatal("no height-1 node buffers a message")
	}
	return best, rep, bestCi
}

// TestInteriorPartitionChecksumOnPartialRead flips one byte inside one
// child buffer's partition of a height-1 node. A cold point Get through
// that partition reads the node's shell and the partition, fails the
// partition checksum, re-reads it exactly once and surfaces ErrChecksum;
// a Get through another partition of the same node is unharmed; and a
// whole read of the node, and a scrub, still catch the flip.
func TestInteriorPartitionChecksumOnPartialRead(t *testing.T) {
	dev, backend, s, want := interiorStore(t)
	tr := s.Data()
	x, rep, ci := bufferedInterior(t, s)
	p := x.bufs[ci].part
	key := append([]byte(nil), x.bufs[ci].points[0].Key...)
	dev.CorruptFlip(devOffset(backend, "data", rep.Off+int64(p.diskOff+p.diskLen/2)), 1, 5)
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}

	partials := metricstest.Counter(t, s.env.Metrics, "betree.node.partialread")
	retried := s.m.retryCorrupt.Load()
	if _, _, err := tr.Get(key); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Get through the flipped partition: %v, want ErrChecksum", err)
	}
	if n := s.m.retryCorrupt.Load() - retried; n != 1 {
		t.Fatalf("io.retry.corrupt rose by %d, want 1", n)
	}
	if metricstest.Counter(t, s.env.Metrics, "betree.node.partialread") == partials {
		t.Fatal("the cold Get did not read the interior node partially")
	}
	// Keys x routes to another partition, or that do not descend through
	// x at all, read; those x routes to the flipped one read or fail.
	for i := 0; i < interiorKeys; i++ {
		got, ok, err := tr.Get(k(i))
		switch {
		case err != nil && (x.childFor(s.env, k(i)) != ci || !errors.Is(err, ErrChecksum)):
			t.Fatalf("key %d: %v", i, err)
		case err == nil && (!ok || !bytes.Equal(got, want(i))):
			t.Fatalf("key %d: silent wrong data", i)
		}
	}
	if _, err := s.readNode(tr, x.id, nil); !errors.Is(err, ErrChecksum) {
		t.Fatalf("whole read of the flipped node: %v, want ErrChecksum", err)
	}
	flagged := 0
	for _, r := range s.Scrub() {
		if r.Corrupt() {
			flagged++
			if r.ID != rep.ID || r.Tree != "data" {
				t.Fatalf("scrub flagged %s node %d, the flip was in data node %d", r.Tree, r.ID, rep.ID)
			}
		}
	}
	if flagged != 1 {
		t.Fatalf("scrub flagged %d nodes, want 1", flagged)
	}
}

// TestTornInteriorNodePartialRead zeroes the tail half of a height-1
// node's image, as a torn write leaves it. Its shell still verifies, so
// cold point Gets read it partially; each one must return the key's value
// or ErrChecksum, never a wrong value, and some must fail.
func TestTornInteriorNodePartialRead(t *testing.T) {
	dev, backend, s, want := interiorStore(t)
	x, rep, _ := bufferedInterior(t, s)
	if rep.Len/2 < headerRegion {
		t.Fatalf("height-1 node of %d bytes: its shell would not survive the tear", rep.Len)
	}
	dev.CorruptZero(devOffset(backend, "data", rep.Off+rep.Len/2), rep.Len-rep.Len/2)
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	partials := metricstest.Counter(t, s.env.Metrics, "betree.partition.read")
	failed := 0
	for i := 0; i < interiorKeys; i++ {
		got, ok, err := s.Data().Get(k(i))
		switch {
		case err != nil:
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("key %d: %v", i, err)
			}
			failed++
		case !ok || !bytes.Equal(got, want(i)):
			t.Fatalf("key %d: silent wrong data from a torn node", i)
		}
	}
	if failed == 0 {
		t.Fatal("no read noticed the torn interior node")
	}
	if metricstest.Counter(t, s.env.Metrics, "betree.partition.read") == partials {
		t.Fatal("no partition was read partially")
	}
	if err := s.verifyExtent(s.data, x.id, extent{off: rep.Off, len: rep.Len}); !errors.Is(err, ErrChecksum) {
		t.Fatalf("torn interior image not caught by a whole read: %v", err)
	}
}

// TestColdGetReadsLessThanInteriorNode: a cold point Get reads the root
// whole and then, of each interior node below it, the shell and the one
// partition on its path, so betree.bytes.read.interior rises by less than
// the extents of the root and one height-1 node.
func TestColdGetReadsLessThanInteriorNode(t *testing.T) {
	_, _, s, want := interiorStore(t)
	tr := s.Data()
	x, rep, ci := bufferedInterior(t, s)
	rootExt, _ := tr.bt.lookup(tr.rootID)
	key := x.bufs[ci].points[0].Key
	i := 0
	for !bytes.Equal(k(i), key) {
		i++
	}
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	before := metricstest.Counter(t, s.env.Metrics, "betree.bytes.read.interior")
	got, ok, err := tr.Get(key)
	if err != nil || !ok || !bytes.Equal(got, want(i)) {
		t.Fatalf("cold Get: ok=%v err=%v", ok, err)
	}
	read := metricstest.Counter(t, s.env.Metrics, "betree.bytes.read.interior") - before
	if read <= rootExt.len || read >= rootExt.len+rep.Len {
		t.Fatalf("cold Get read %d interior bytes: root %d, height-1 node %d", read, rootExt.len, rep.Len)
	}
	p := x.bufs[ci].part
	if wantRead := rootExt.len + min(headerRegion, rep.Len) + int64(p.diskLen+p.pageLen); read != wantRead {
		t.Fatalf("cold Get read %d interior bytes, want %d: the root, a shell and one partition", read, wantRead)
	}
}

// TestAlignedValuesInteriorPartialRead covers page-valued inserts buffered
// in interior partitions: their payloads sit in the partition's aligned
// page range, which a partial read loads with its small section in one
// device read, and resolving them must give back the bytes written.
func TestAlignedValuesInteriorPartialRead(t *testing.T) {
	_, _, _, s := corruptStore(t, nil)
	tr := s.Data()
	const nkeys = 1500
	big := func(i, gen int) []byte {
		b := bytes.Repeat([]byte{byte(i + gen)}, alignedValueMin+512)
		copy(b, fmt.Sprintf("val-%06d-%d", i, gen))
		return b
	}
	for i := 0; i < nkeys; i++ {
		tr.Put(k(i), big(i, 0), LogAuto)
	}
	for i := 0; i < nkeys; i += 5 {
		tr.Put(k(i), big(i, 1), LogAuto)
	}
	s.DropCleanCaches()
	paged := false
	for _, r := range s.Scrub() {
		n, err := s.readNode(s.data, nodeID(r.ID), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Tree == "data" && !n.isLeaf() && nodeID(r.ID) != s.data.rootID {
			for ci := range n.bufs {
				paged = paged || n.bufs[ci].pageLen > 0
			}
		}
	}
	if !paged {
		t.Fatal("no interior partition below the root holds aligned pages")
	}
	partials := metricstest.Counter(t, s.env.Metrics, "betree.partition.read")
	for i := 0; i < nkeys; i++ {
		s.DropCleanCaches()
		wantVal := big(i, 0)
		if i%5 == 0 {
			wantVal = big(i, 1)
		}
		got, ok, err := tr.Get(k(i))
		if err != nil || !ok || !bytes.Equal(got, wantVal) {
			t.Fatalf("key %d: ok=%v err=%v, value right: %v", i, ok, err, bytes.Equal(got, wantVal))
		}
		i += 36
	}
	if metricstest.Counter(t, s.env.Metrics, "betree.partition.read") == partials {
		t.Fatal("no partition was read partially")
	}
}

// TestColdGetSkipsFilteredPartition: a cold point Get whose key the
// height-1 node's partition on its path holds no message for, and whose
// key filter rules it out, reads that node's shell and no partition. A key
// with a newer message pending in the root only still reads its newest
// value through the same descent, which leaves the partition on disk and
// so skips apply-on-query.
func TestColdGetSkipsFilteredPartition(t *testing.T) {
	_, _, s, want := interiorStore(t)
	tr := s.Data()
	x, rep, ci := bufferedInterior(t, s)
	pts := x.bufs[ci].points
	var ruledOut []int
	for i := 0; i < interiorKeys; i++ {
		if keys.Compare(k(i), pts[0].Key) <= 0 || keys.Compare(k(i), pts[len(pts)-1].Key) >= 0 {
			continue
		}
		held := false
		for _, m := range pts {
			held = held || bytes.Equal(m.Key, k(i))
		}
		if !held && !x.bufs[ci].mayHold(k(i)) {
			ruledOut = append(ruledOut, i)
		}
	}
	if len(ruledOut) < 2 {
		t.Fatalf("%d keys in partition %d's range that its filter rules out", len(ruledOut), ci)
	}
	rootExt, _ := tr.bt.lookup(tr.rootID)
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	i := ruledOut[0]
	read := metricstest.Counter(t, s.env.Metrics, "betree.bytes.read.interior")
	loads := metricstest.Counter(t, s.env.Metrics, "betree.partition.read")
	if got, ok, err := tr.Get(k(i)); err != nil || !ok || !bytes.Equal(got, want(i)) {
		t.Fatalf("cold Get of key %d: ok=%v err=%v", i, ok, err)
	}
	if n := metricstest.Counter(t, s.env.Metrics, "betree.partition.read") - loads; n != 0 {
		t.Fatalf("the cold Get loaded %d partitions", n)
	}
	if got, wantRead := metricstest.Counter(t, s.env.Metrics, "betree.bytes.read.interior")-read, rootExt.len+min(headerRegion, rep.Len); got != wantRead {
		t.Fatalf("cold Get read %d interior bytes, want %d: the root and a shell", got, wantRead)
	}

	j := ruledOut[1]
	newer := v(j+11, 128)
	if err := tr.Put(k(j), newer, LogAuto); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := tr.Get(k(j)); err != nil || !ok || !bytes.Equal(got, newer) {
		t.Fatalf("Get of key %d with a message pending in the root: ok=%v err=%v", j, ok, err)
	}
	cached, ok := s.cache.lookup(tr, x.id, false)
	if !ok || !cached.bufs[ci].missing {
		t.Fatal("the Gets loaded the partition their key filter rules out")
	}
	// Had that Get brought its basement up to date without the partition,
	// the keys it holds messages for would now read their older values.
	for _, m := range pts {
		i := 0
		for !bytes.Equal(k(i), m.Key) {
			i++
		}
		if got, ok, err := tr.Get(k(i)); err != nil || !ok || !bytes.Equal(got, want(i)) {
			t.Fatalf("key %d, pending in the partition: ok=%v err=%v", i, ok, err)
		}
	}
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := tr.Get(k(j)); err != nil || !ok || !bytes.Equal(got, newer) {
		t.Fatalf("key %d after a checkpoint: ok=%v err=%v", j, ok, err)
	}
}

// TestColdGetSeesPartitionRangeDelete: a range delete pending in a
// height-1 node's partition covers keys the partition holds no point
// message for, so the partition has no key filter and a cold point Get of
// a covered key loads it and finds the key deleted.
func TestColdGetSeesPartitionRangeDelete(t *testing.T) {
	_, _, s, want := interiorStore(t)
	tr := s.Data()
	whole, _, ci := bufferedInterior(t, s)
	pts := whole.bufs[ci].points
	lo, hi := pts[0].Key, pts[len(pts)-1].Key
	s.lockExcl()
	x := tr.mustFetch(whole.id)
	x.bufs[ci].insert(&Msg{Type: MsgRangeDelete, MSN: s.nextMsn(), Key: lo, EndKey: hi})
	tr.markDirty(x)
	tr.unpin(x)
	s.unlockExcl()
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	covered := 0
	for i := 0; i < interiorKeys; i++ {
		inside := keys.Compare(lo, k(i)) <= 0 && keys.Compare(k(i), hi) < 0
		got, ok, err := tr.Get(k(i))
		switch {
		case err != nil:
			t.Fatalf("key %d: %v", i, err)
		case inside && ok:
			t.Fatalf("key %d: read back past a pending range delete", i)
		case !inside && (!ok || !bytes.Equal(got, want(i))):
			t.Fatalf("key %d outside the range delete: ok=%v", i, ok)
		}
		if inside {
			covered++
		}
		if i%500 == 0 {
			if err := s.DropCleanCaches(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if covered < 10 {
		t.Fatalf("the range delete covered %d keys", covered)
	}
}
