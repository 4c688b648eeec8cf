package betree

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/metrics/metricstest"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
)

// pagedLeafKeys is how many keys pagedLeafStore writes.
const pagedLeafKeys = 600

// pagedValue is key i's value in pagedLeafStore: big enough to live in its
// leaf's aligned page section, so every basement has a page range apart
// from its small section.
func pagedValue(i int) []byte {
	b := bytes.Repeat([]byte{byte(i + 1)}, alignedValueMin+512)
	copy(b, fmt.Sprintf("val-%06d", i))
	return b
}

// pagedLeafStore builds a two-level data tree whose leaves hold page-valued
// entries in many basements, and returns it with its caches dropped.
func pagedLeafStore(t testing.TB, mutate func(*Config)) (*sim.Env, *blockdev.Dev, *sfl.SFL, *Store) {
	t.Helper()
	env, dev, backend, s := corruptStore(t, func(c *Config) {
		c.NodeSize = 256 << 10
		c.BasementSize = 16 << 10
		c.Fanout = 16
		c.CacheBytes = 64 << 20
		if mutate != nil {
			mutate(c)
		}
	})
	tr := s.Data()
	for i := 0; i < pagedLeafKeys; i++ {
		if err := tr.Put(k(i), pagedValue(i), LogAuto); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	tr.SetSeqHint(false)
	return env, dev, backend, s
}

// keptLeaf reads, whole and outside the cache, the first leaf under the
// root with at least three basements whose small sections all lie in the
// header region and whose page ranges are not empty: a cold Get into it
// can take every small section from the shell read. It leaves the root
// cached and everything else cold.
func keptLeaf(t testing.TB, s *Store) (*node, extent) {
	t.Helper()
	tr := s.Data()
	root := tr.mustFetch(tr.rootID)
	defer tr.unpin(root)
	if root.height != 1 {
		t.Fatalf("root height %d, want 1", root.height)
	}
	for _, id := range root.children {
		ext, _ := tr.bt.lookup(id)
		n, err := s.readNode(tr, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		fits := len(n.basements) >= 3
		for _, b := range n.basements {
			fits = fits && b.diskOff+b.diskLen <= headerRegion && b.pageLen > 0
		}
		if fits {
			return n, ext
		}
	}
	t.Fatal("no leaf whose basements' small sections all lie in the header region")
	return nil, extent{}
}

// firstEntry returns the first entry of basement bi of leaf n, read whole.
func firstEntry(n *node, bi int) entry { return n.basements[bi].entries[0] }

// TestColdGetReadCommands counts device reads: a cold Get reads the leaf
// as its shell and then the page range of the key's basement, whose small
// section the shell read kept; a second Get into another basement of the
// now half-loaded leaf reads that basement's page range alone.
func TestColdGetReadCommands(t *testing.T) {
	_, dev, _, s := pagedLeafStore(t, nil)
	tr := s.Data()
	whole, _ := keptLeaf(t, s)
	for step, bi := range []int{0, len(whole.basements) - 1} {
		e := firstEntry(whole, bi)
		reads := dev.Stats().Reads
		got, ok, err := tr.Get(e.key)
		if err != nil || !ok || !bytes.Equal(got, e.val.Bytes()) {
			t.Fatalf("Get into basement %d: ok=%v err=%v", bi, ok, err)
		}
		if n, want := dev.Stats().Reads-reads, int64(2-step); n != want {
			t.Fatalf("Get %d, into basement %d, issued %d device reads, want %d", step+1, bi, n, want)
		}
	}
	n, ok := s.cache.lookup(tr, whole.id, false)
	if !ok {
		t.Fatal("the leaf left the cache")
	}
	for bi, b := range n.basements {
		if loaded := bi == 0 || bi == len(n.basements)-1; b.loaded != loaded || (b.kept.Len() == 0) != loaded {
			t.Fatalf("basement %d: loaded=%v, holds a kept small section: %v", bi, b.loaded, b.kept.Len() > 0)
		}
	}
	// The kept sections borrow the image the shell was read into, one
	// borrow each, and it comes back once the leaf leaves the cache.
	hdr, _ := n.basements[1].kept.hold.(*image)
	if hdr == nil || hdr.refs.Load() != int32(len(n.basements)-2) {
		t.Fatal("the kept small sections do not each borrow the shell's image")
	}
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	if !hdr.pooled.Load() {
		t.Fatal("after the cache drop the shell's image is not back in the pool")
	}
}

// TestBytesReadCountsDeviceBytes: betree.bytes.read counts only the bytes
// that came off the device, so over cold Gets that load basements from
// fresh shell reads, from half-loaded leaves, and from the whole-read root,
// it rises exactly as the device's read bytes do.
func TestBytesReadCountsDeviceBytes(t *testing.T) {
	_, dev, _, s := pagedLeafStore(t, nil)
	tr := s.Data()
	before := metricstest.Counter(t, s.env.Metrics, "betree.bytes.read")
	devBefore := dev.Stats().BytesRead
	basements := metricstest.Counter(t, s.env.Metrics, "betree.basement.read")
	for i := 0; i < pagedLeafKeys; i += 7 {
		got, ok, err := tr.Get(k(i))
		if err != nil || !ok || !bytes.Equal(got, pagedValue(i)) {
			t.Fatalf("key %d: ok=%v err=%v", i, ok, err)
		}
	}
	if metricstest.Counter(t, s.env.Metrics, "betree.basement.read")-basements < 20 {
		t.Fatal("the Gets loaded fewer than 20 basements")
	}
	read := metricstest.Counter(t, s.env.Metrics, "betree.bytes.read") - before
	if devRead := dev.Stats().BytesRead - devBefore; read != devRead {
		t.Fatalf("betree.bytes.read rose by %d, the device read %d bytes", read, devRead)
	}
}

// TestCorruptKeptSmallSection corrupts one basement's small section on the
// medium. The shell verifies, so the leaf's shell read keeps the corrupt
// bytes; the basement checksum catches them, the re-read from the device
// finds the same damage, and the Get reports ErrChecksum while the leaf's
// other basements still read back right.
func TestCorruptKeptSmallSection(t *testing.T) {
	_, dev, backend, s := pagedLeafStore(t, nil)
	tr := s.Data()
	whole, ext := keptLeaf(t, s)
	bad := whole.basements[1]
	dev.CorruptFlip(devOffset(backend, "data", ext.off+int64(bad.diskOff)), int64(bad.diskLen), 5)
	retried := s.m.retryCorrupt.Load()
	if _, _, err := tr.Get(bad.entries[0].key); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Get from a basement with a corrupt small section: %v, want ErrChecksum", err)
	}
	if n := s.m.retryCorrupt.Load() - retried; n != 1 {
		t.Fatalf("io.retry.corrupt rose by %d, want 1", n)
	}
	for bi := range whole.basements {
		if bi == 1 {
			continue
		}
		e := firstEntry(whole, bi)
		if got, ok, err := tr.Get(e.key); err != nil || !ok || !bytes.Equal(got, e.val.Bytes()) {
			t.Fatalf("basement %d beside the corrupt one: ok=%v err=%v", bi, ok, err)
		}
	}
	if _, _, err := tr.Get(bad.entries[0].key); !errors.Is(err, ErrChecksum) {
		t.Fatalf("second Get from the corrupt basement: %v, want ErrChecksum", err)
	}
}

// TestHeaderTransferFlipInKeptSection flips one bit of a leaf's header
// read in transfer only, inside a basement's small section, which the
// shell checksum does not cover. The basement load's checksum catches it,
// and its re-read of small section and page range from the device returns
// the right value.
func TestHeaderTransferFlipInKeptSection(t *testing.T) {
	_, _, _, s := pagedLeafStore(t, nil)
	tr := s.Data()
	whole, ext := keptLeaf(t, s)
	b := whole.basements[2]
	inner := tr.f
	flips := 0
	tr.f = &tapFile{File: inner, onRead: func(p []byte, off int64) {
		if off == ext.off && flips == 0 {
			flips++
			p[b.diskOff+b.diskLen/2] ^= 0x04
		}
	}}
	defer func() { tr.f = inner }()
	retried := s.m.retryCorrupt.Load()
	e := firstEntry(whole, 2)
	got, ok, err := tr.Get(e.key)
	if err != nil || !ok || !bytes.Equal(got, e.val.Bytes()) {
		t.Fatalf("Get after a flip in the header read: ok=%v err=%v", ok, err)
	}
	if flips != 1 {
		t.Fatalf("%d header reads flipped, want 1", flips)
	}
	if n := s.m.retryCorrupt.Load() - retried; n != 1 {
		t.Fatalf("io.retry.corrupt rose by %d, want 1", n)
	}
}

// TestConcurrentKeptSmallSections runs Gets from several goroutines into
// different basements of one half-loaded leaf on a concurrent store: each
// basement loads once, under the leaf's exclusive latch, from its kept
// small section and one device read of its pages. Run with -race.
func TestConcurrentKeptSmallSections(t *testing.T) {
	_, dev, _, s := pagedLeafStore(t, func(c *Config) { c.Concurrent = true })
	tr := s.Data()
	whole, _ := keptLeaf(t, s)
	// The first Get leaves the leaf cached with the other basements'
	// small sections kept.
	first := firstEntry(whole, 0)
	if _, ok, err := tr.Get(first.key); err != nil || !ok {
		t.Fatalf("first Get: ok=%v err=%v", ok, err)
	}
	loads := metricstest.Counter(t, s.env.Metrics, "betree.basement.read")
	reads := dev.Stats().Reads
	var wg sync.WaitGroup
	for bi := 1; bi < len(whole.basements); bi++ {
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(bi int) {
				defer wg.Done()
				e := firstEntry(whole, bi)
				if got, ok, err := tr.Get(e.key); err != nil || !ok || !bytes.Equal(got, e.val.Bytes()) {
					t.Errorf("basement %d: ok=%v err=%v", bi, ok, err)
				}
			}(bi)
		}
	}
	wg.Wait()
	want := int64(len(whole.basements) - 1)
	if n := metricstest.Counter(t, s.env.Metrics, "betree.basement.read") - loads; n != want {
		t.Fatalf("%d basement loads, want %d", n, want)
	}
	if n := dev.Stats().Reads - reads; n != want {
		t.Fatalf("%d device reads for %d basement loads, want one each", n, want)
	}
}

// BenchmarkColdGet times a cold point Get into a leaf whose basements'
// small sections lie in its header region, with the root cached, and
// reports simulated seconds and device reads per Get.
func BenchmarkColdGet(b *testing.B) {
	env, dev, _, s := pagedLeafStore(b, nil)
	tr := s.Data()
	whole, _ := keptLeaf(b, s)
	e := firstEntry(whole, len(whole.basements)/2)
	var simNs int64
	var reads int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := s.DropCleanCaches(); err != nil {
			b.Fatal(err)
		}
		tr.unpin(tr.mustFetch(tr.rootID))
		start, r := env.Now(), dev.Stats().Reads
		b.StartTimer()
		if _, ok, err := tr.Get(e.key); err != nil || !ok {
			b.Fatalf("Get: ok=%v err=%v", ok, err)
		}
		simNs += int64(env.Now() - start)
		reads += dev.Stats().Reads - r
	}
	b.ReportMetric(float64(simNs)/1e9/float64(b.N), "sim-s/op")
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
}
