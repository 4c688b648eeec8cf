package betree

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"testing"
	"time"

	"betrfs/internal/blockdev"
	"betrfs/internal/kmem"
	"betrfs/internal/metrics/metricstest"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
)

// testStore builds a store over a simulated SSD with a small node size so
// tests exercise flushing and splitting without huge datasets.
func testStore(t testing.TB, mutate func(*Config)) (*sim.Env, *Store) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, berr := sfl.NewDefault(env, dev)
	if berr != nil {
		t.Fatal(berr)
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
	return env, s
}

func k(i int) []byte { return []byte(fmt.Sprintf("dir/key-%08d", i)) }
func v(i int, size int) []byte {
	b := bytes.Repeat([]byte{byte(i)}, size)
	b[0] = byte(i >> 8)
	return b
}

func TestPutGetSmall(t *testing.T) {
	_, s := testStore(t, nil)
	tr := s.Meta()
	tr.Put([]byte("a"), []byte("1"), LogAuto)
	tr.Put([]byte("b"), []byte("2"), LogAuto)
	got, ok, _ := tr.Get([]byte("a"))
	if !ok || string(got) != "1" {
		t.Fatalf("Get(a) = %q,%v", got, ok)
	}
	if _, ok, _ := tr.Get([]byte("zzz")); ok {
		t.Fatal("Get of absent key succeeded")
	}
}

func TestOverwrite(t *testing.T) {
	_, s := testStore(t, nil)
	tr := s.Meta()
	tr.Put([]byte("k"), []byte("old"), LogAuto)
	tr.Put([]byte("k"), []byte("new"), LogAuto)
	got, ok, _ := tr.Get([]byte("k"))
	if !ok || string(got) != "new" {
		t.Fatalf("Get = %q,%v, want new", got, ok)
	}
}

func TestDelete(t *testing.T) {
	_, s := testStore(t, nil)
	tr := s.Meta()
	tr.Put([]byte("k"), []byte("v"), LogAuto)
	tr.Delete([]byte("k"), LogAuto)
	if _, ok, _ := tr.Get([]byte("k")); ok {
		t.Fatal("deleted key still visible")
	}
}

func TestManyInsertsAcrossSplits(t *testing.T) {
	_, s := testStore(t, nil)
	tr := s.Meta()
	const n = 5000
	for i := 0; i < n; i++ {
		tr.Put(k(i), v(i, 64), LogAuto)
	}
	for i := 0; i < n; i += 97 {
		got, ok, _ := tr.Get(k(i))
		if !ok {
			t.Fatalf("key %d missing after splits", i)
		}
		if !bytes.Equal(got, v(i, 64)) {
			t.Fatalf("key %d has wrong value", i)
		}
	}
	// Root must no longer be a leaf.
	root, _ := s.cache.lookup(tr, tr.rootID, false)
	if root != nil && root.isLeaf() {
		t.Fatal("tree never split with 5000 x 64B inserts and 64KiB nodes")
	}
}

func TestScanOrderAndCompleteness(t *testing.T) {
	_, s := testStore(t, nil)
	tr := s.Meta()
	const n = 2000
	for i := n - 1; i >= 0; i-- { // reverse insert order
		tr.Put(k(i), v(i, 32), LogAuto)
	}
	var prev []byte
	count := 0
	tr.Scan(nil, nil, func(key, val []byte) bool {
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			t.Fatalf("scan out of order at %q", key)
		}
		prev = append(prev[:0], key...)
		count++
		return true
	})
	if count != n {
		t.Fatalf("scan yielded %d keys, want %d", count, n)
	}
}

func TestScanRangeBounds(t *testing.T) {
	_, s := testStore(t, nil)
	tr := s.Meta()
	for i := 0; i < 100; i++ {
		tr.Put(k(i), []byte("x"), LogAuto)
	}
	count := tr.Count(k(10), k(20))
	if count != 10 {
		t.Fatalf("range scan count = %d, want 10", count)
	}
}

func TestScanSeesBufferedInserts(t *testing.T) {
	// Inserts that are still buffered in interior nodes must be visible
	// to scans.
	_, s := testStore(t, nil)
	tr := s.Meta()
	for i := 0; i < 3000; i++ {
		tr.Put(k(i), v(i, 64), LogAuto)
	}
	// These stay in the root buffer (too few to force a flush).
	tr.Put([]byte("dir/key-00001500x"), []byte("buffered"), LogAuto)
	found := false
	tr.Scan(k(1500), k(1501), func(key, val []byte) bool {
		if string(key) == "dir/key-00001500x" && string(val) == "buffered" {
			found = true
		}
		return true
	})
	if !found {
		t.Fatal("scan missed a buffered insert")
	}
}

// TestScanSeeksWithinBasement: a scan that starts mid-basement positions
// its cursor by binary search, so yielding k entries from a basement of n
// charges at most k + ⌈log₂(n+1)⌉ + 2 key comparisons, not the walk over
// the ~2n/3 entries that precede the cursor here.
func TestScanSeeksWithinBasement(t *testing.T) {
	env, s := testStore(t, func(c *Config) { c.NodeSize = 4 << 20 })
	tr := s.Meta()
	const n = 30000
	for i := 0; i < n; i++ {
		tr.Put(k(i), v(i, 8), LogNone)
	}
	root := tr.mustFetch(tr.rootID)
	leaf, basements := root.isLeaf(), len(root.basements)
	tr.unpin(root)
	if !leaf || basements != 1 {
		t.Fatalf("want one root leaf with one basement, got leaf=%v basements=%d", leaf, basements)
	}

	lo, hi := k(2*n/3), k(2*n/3+3)
	before := env.Stats.Compare
	yielded := tr.Count(lo, hi)
	charged := env.Stats.Compare - before
	// Every comparison the scan charges inspects len(lo) bytes.
	per := env.Costs.CompareBase + time.Duration(int64(len(lo))*env.Costs.ComparePsPerByte/1000)
	compares := int(charged / per)
	if yielded != 3 {
		t.Fatalf("scan yielded %d entries, want 3", yielded)
	}
	if bound := yielded + bits.Len(n) + 2; compares > bound {
		t.Fatalf("scan of %d entries from a %d-entry basement charged %d comparisons, want at most %d",
			yielded, n, compares, bound)
	}
}

func TestRangeDelete(t *testing.T) {
	_, s := testStore(t, nil)
	tr := s.Meta()
	for i := 0; i < 1000; i++ {
		tr.Put(k(i), []byte("x"), LogAuto)
	}
	tr.DeleteRange(k(100), k(900), LogAuto)
	if got := tr.Count(nil, nil); got != 200 {
		t.Fatalf("after range delete, %d keys remain, want 200", got)
	}
	if _, ok, _ := tr.Get(k(500)); ok {
		t.Fatal("range-deleted key still visible to Get")
	}
	if _, ok, _ := tr.Get(k(99)); !ok {
		t.Fatal("key outside range was deleted")
	}
}

func TestRangeDeleteThenReinsert(t *testing.T) {
	_, s := testStore(t, nil)
	tr := s.Meta()
	for i := 0; i < 100; i++ {
		tr.Put(k(i), []byte("a"), LogAuto)
	}
	tr.DeleteRange(k(0), k(100), LogAuto)
	tr.Put(k(50), []byte("b"), LogAuto)
	got, ok, _ := tr.Get(k(50))
	if !ok || string(got) != "b" {
		t.Fatalf("reinsert after range delete: %q,%v", got, ok)
	}
	if n := tr.Count(nil, nil); n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
}

func TestBlindUpdate(t *testing.T) {
	_, s := testStore(t, nil)
	tr := s.Data()
	val := bytes.Repeat([]byte{0xaa}, 4096)
	tr.Put([]byte("f"), val, LogAuto)
	tr.Update([]byte("f"), 100, []byte{1, 2, 3, 4}, LogAuto)
	got, ok, _ := tr.Get([]byte("f"))
	if !ok {
		t.Fatal("updated key missing")
	}
	want := append([]byte{}, val...)
	copy(want[100:], []byte{1, 2, 3, 4})
	if !bytes.Equal(got, want) {
		t.Fatal("blind update produced wrong value")
	}
}

func TestBlindUpdateToAbsentKey(t *testing.T) {
	_, s := testStore(t, nil)
	tr := s.Data()
	tr.Update([]byte("ghost"), 8, []byte{9}, LogAuto)
	got, ok, _ := tr.Get([]byte("ghost"))
	if !ok || len(got) != 9 || got[8] != 9 {
		t.Fatalf("blind update to absent key: %v,%v", got, ok)
	}
}

func TestUpdateExtendsValue(t *testing.T) {
	_, s := testStore(t, nil)
	tr := s.Data()
	tr.Put([]byte("f"), []byte{1, 2}, LogAuto)
	tr.Update([]byte("f"), 4, []byte{5}, LogAuto)
	got, _, _ := tr.Get([]byte("f"))
	if len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("extendingupdate: %v", got)
	}
}

func TestLargeValues(t *testing.T) {
	_, s := testStore(t, nil)
	tr := s.Data()
	const n = 300
	for i := 0; i < n; i++ {
		tr.Put(k(i), v(i, 4096), LogAuto)
	}
	for i := 0; i < n; i += 17 {
		got, ok, _ := tr.Get(k(i))
		if !ok || !bytes.Equal(got, v(i, 4096)) {
			t.Fatalf("4KiB value %d corrupted", i)
		}
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, berr := sfl.NewDefault(env, dev)
	if berr != nil {
		t.Fatal(berr)
	}
	cfg := DefaultConfig()
	cfg.NodeSize = 64 << 10
	cfg.BasementSize = 4 << 10
	cfg.CacheBytes = 8 << 20
	alloc := kmem.New(env, true)
	s, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		s.Meta().Put(k(i), v(i, 48), LogAuto)
	}
	s.Checkpoint()

	// Reopen over the same backend.
	s2, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for i := 0; i < n; i += 31 {
		got, ok, _ := s2.Meta().Get(k(i))
		if !ok || !bytes.Equal(got, v(i, 48)) {
			t.Fatalf("key %d lost across reopen", i)
		}
	}
	if got := s2.Meta().Count(nil, nil); got != n {
		t.Fatalf("count after reopen = %d, want %d", got, n)
	}
}

func TestLogReplayAfterCrash(t *testing.T) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, berr := sfl.NewDefault(env, dev)
	if berr != nil {
		t.Fatal(berr)
	}
	cfg := DefaultConfig()
	cfg.NodeSize = 64 << 10
	cfg.CacheBytes = 8 << 20
	alloc := kmem.New(env, true)
	s, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	// Ops after the last checkpoint, made durable only via the log.
	for i := 0; i < 100; i++ {
		s.Meta().Put(k(i), v(i, 32), LogAuto)
	}
	s.SyncLog()
	// Crash: drop all cached state, reopen from disk.
	s.cache.dropAll()
	s2, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	for i := 0; i < 100; i++ {
		got, ok, _ := s2.Meta().Get(k(i))
		if !ok || !bytes.Equal(got, v(i, 32)) {
			t.Fatalf("key %d lost after crash+replay", i)
		}
	}
}

// TestLogReplayAfterCrashPastLogWrap crashes after the circular log has
// been reclaimed and refilled past the reclaimed space. The superblock a
// checkpoint writes must carry the recovery hint its own reclaim leaves:
// with the hint of the reclaim before, appends after the checkpoint
// overwrite the records it points at, recovery finds an out-of-sequence
// record where it starts and replays nothing, and every operation synced
// since the checkpoint is lost.
func TestLogReplayAfterCrashPastLogWrap(t *testing.T) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	lay := sfl.DefaultLayout(dev.Size())
	lay.LogBytes = 4 << 20
	backend, berr := sfl.New(env, dev, lay)
	if berr != nil {
		t.Fatal(berr)
	}
	cfg := DefaultConfig()
	cfg.CacheBytes = 64 << 20
	alloc := kmem.New(env, true)
	s, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	// One log-space checkpoint at four fifths of the region, then half a
	// region more: the head is now past where the first lap began.
	const n = 21000
	for i := 0; i < n; i++ {
		if err := s.Meta().Put(k(i), v(i, 200), LogAuto); err != nil {
			t.Fatal(err)
		}
		if err := s.MaybeCheckpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SyncLog(); err != nil {
		t.Fatal(err)
	}
	if ck, live := metricstest.Counter(t, s.env.Metrics, "betree.checkpoint.run"), s.Log().LiveBytes(); ck != 2 || live < lay.LogBytes/4 {
		t.Fatalf("setup: %d checkpoints, %d live log bytes; want 2 and over a quarter region", ck, live)
	}
	s.cache.dropAll()
	s2, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	for i := 0; i < n; i++ {
		got, ok, _ := s2.Meta().Get(k(i))
		if !ok || !bytes.Equal(got, v(i, 200)) {
			t.Fatalf("synced key %d of %d lost after crash past log wrap", i, n)
		}
	}
}

func TestUnsyncedOpsLostAfterCrash(t *testing.T) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, berr := sfl.NewDefault(env, dev)
	if berr != nil {
		t.Fatal(berr)
	}
	cfg := DefaultConfig()
	cfg.CheckpointPeriod = 1 << 40 // effectively never
	alloc := kmem.New(env, true)
	s, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	s.Meta().Put([]byte("durable"), []byte("1"), LogAuto)
	s.SyncLog()
	s.Meta().Put([]byte("volatile"), []byte("2"), LogAuto)
	// no sync
	s.cache.dropAll()
	s2, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s2.Meta().Get([]byte("durable")); !ok {
		t.Fatal("synced op lost")
	}
	if _, ok, _ := s2.Meta().Get([]byte("volatile")); ok {
		t.Fatal("unsynced op survived crash (not prefix-consistent)")
	}
}

func TestPacmanCoalescesDirectoryDeletes(t *testing.T) {
	// A broad range delete should eat the narrower ones beneath it when
	// coalescing is enabled.
	_, s := testStore(t, nil)
	tr := s.Meta()
	for i := 0; i < 4000; i++ {
		tr.Put(k(i), v(i, 64), LogAuto)
	}
	// Narrow per-file deletes, then the directory-wide delete (RG).
	for i := 0; i < 50; i++ {
		tr.DeleteRange(k(i*10), k(i*10+5), LogAuto)
	}
	tr.DeleteRange([]byte("dir"), []byte("dis"), LogAuto) // covers everything
	// PacMan runs at flush time (§2.2); push more traffic through so the
	// buffered range deletes flow down and get gobbled.
	for i := 0; i < 3000; i++ {
		tr.Put([]byte(fmt.Sprintf("zzz/key-%08d", i)), v(i, 64), LogAuto)
	}
	if metricstest.Counter(t, s.env.Metrics, "betree.pacman.drop") == 0 {
		t.Fatal("PacMan never dropped a covered message")
	}
	if got := tr.Count([]byte("dir"), []byte("dis")); got != 0 {
		t.Fatalf("%d keys survived directory delete", got)
	}
}

func TestPacmanV04DoesNotCoalesceAdjacent(t *testing.T) {
	// Adjacent-but-not-overlapping deletes (the rm -rf pattern) must not
	// be consumed in either mode — correctness — but only v0.6's
	// directory-level delete makes them collapsible.
	_, s := testStore(t, func(c *Config) { c.CoalesceRangeDeletes = false })
	tr := s.Meta()
	for i := 0; i < 1000; i++ {
		tr.Put(k(i), v(i, 64), LogAuto)
	}
	for i := 0; i < 100; i++ {
		tr.DeleteRange(k(i*10), k(i*10+9), LogAuto)
	}
	// 1 key in 10 survives each decade delete (the k(i*10+9) bound is
	// exclusive), so 100 keys remain.
	if got := tr.Count(nil, nil); got != 100 {
		t.Fatalf("%d keys remain, want 100", got)
	}
}

func TestGetChargesTime(t *testing.T) {
	env, s := testStore(t, nil)
	tr := s.Meta()
	tr.Put([]byte("k"), []byte("v"), LogAuto)
	before := env.Now()
	tr.Get([]byte("k"))
	if env.Now() <= before {
		t.Fatal("Get charged no simulated time")
	}
}

func TestWriteOptimization(t *testing.T) {
	// Random small inserts must cost far less I/O time than the same
	// writes issued as in-place 4KiB random writes on the raw device:
	// the whole point of write optimization.
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, berr := sfl.NewDefault(env, dev)
	if berr != nil {
		t.Fatal(berr)
	}
	cfg := DefaultConfig()
	cfg.CacheBytes = 64 << 20
	s, err := Open(env, kmem.New(env, true), cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	rnd := sim.NewRand(7)
	const n = 4000
	start := env.Now()
	for i := 0; i < n; i++ {
		tr := s.Data()
		tr.Put(k(rnd.Intn(1000000)), v(i, 4096), LogAuto)
	}
	s.Sync()
	betreeTime := env.Now() - start

	env2 := sim.NewEnv(1)
	dev2 := blockdev.New(env2, blockdev.SamsungEVO860().Scale(64))
	rnd2 := sim.NewRand(7)
	buf := make([]byte, 4096)
	start2 := env2.Now()
	for i := 0; i < n; i++ {
		dev2.WriteAt(buf, int64(rnd2.Intn(1000000))*4096)
	}
	dev2.Flush()
	rawTime := env2.Now() - start2

	if betreeTime*2 > rawTime {
		t.Fatalf("Bε-tree random inserts (%v) not much faster than raw random writes (%v)",
			betreeTime, rawTime)
	}
}

// TestOverlongKeyIsRefused: a key longer than its 16-bit encoded length
// holds is refused before anything reaches the log or the tree, by every
// mutator. Stored, it would be cut in the node image, and the node that
// held it would fail its checksum on the next read.
func TestOverlongKeyIsRefused(t *testing.T) {
	env, s := testStore(t, nil)
	tr := s.Meta()
	if err := tr.Put([]byte("a"), []byte("1"), LogAuto); err != nil {
		t.Fatal(err)
	}
	long := bytes.Repeat([]byte("k"), MaxKeyLen+1)
	logged := env.Metrics.Counter("wal.append.count").Load()
	if logged == 0 {
		t.Fatal("wal.append.count did not count the first put")
	}
	for what, err := range map[string]error{
		"put":          tr.Put(long, []byte("v"), LogAuto),
		"update":       tr.Update(long, 0, []byte("v"), LogAuto),
		"delete":       tr.Delete(long, LogAuto),
		"delete range": tr.DeleteRange([]byte("a"), long, LogAuto),
		"log insert": func() error {
			_, err := tr.LogInsertOnly(long, []byte("v"))
			return err
		}(),
	} {
		if !errors.Is(err, ErrKeyTooLong) {
			t.Errorf("%s of a %d-byte key: %v, want ErrKeyTooLong", what, len(long), err)
		}
	}
	if n := env.Metrics.Counter("wal.append.count").Load(); n != logged {
		t.Errorf("refused keys appended %d log records", n-logged)
	}
	if err := tr.Put(long[:MaxKeyLen], []byte("v"), LogAuto); err != nil {
		t.Fatalf("put of a %d-byte key: %v", MaxKeyLen, err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	for _, key := range [][]byte{[]byte("a"), long[:MaxKeyLen]} {
		if _, ok, err := tr.Get(key); !ok || err != nil {
			t.Fatalf("get of a %d-byte key after sync and drop: %v, %v", len(key), ok, err)
		}
	}
}
