package betrfs

import (
	"fmt"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/keys"
	"betrfs/internal/kmem"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

func newFS(t testing.TB, mutate func(*Config)) (*sim.Env, *FS) {
	t.Helper()
	return newFSWithLog(t, 0, mutate)
}

// newFSWithLog is newFS over a log region of logBytes (the default layout's
// when zero).
func newFSWithLog(t testing.TB, logBytes int64, mutate func(*Config)) (*sim.Env, *FS) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	lay := sfl.DefaultLayout(dev.Size())
	if logBytes > 0 {
		lay.LogBytes = logBytes
	}
	cfg := V06Config()
	cfg.Tree.CacheBytes = 64 << 20
	if mutate != nil {
		mutate(&cfg)
	}
	backend, err := sfl.New(env, dev, lay)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(env, kmem.New(env, cfg.CooperativeMem), cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	return env, fs
}

func TestConditionalLoggingDefersInsert(t *testing.T) {
	_, fs := newFS(t, nil)
	h, _, err := fs.Create(fs.Root(), "deferred", false)
	if err != nil {
		t.Fatal(err)
	}
	// The metadata index must NOT contain the key yet.
	if _, ok, _ := fs.store.Meta().Get(keys.MetaKey("deferred")); ok {
		t.Fatal("conditional logging did not defer the insert")
	}
	if fs.Stats().DeferredCreates != 1 {
		t.Fatal("deferred create not counted")
	}
	// Lookup is still served (from the pending table).
	if _, _, err := fs.Lookup(fs.Root(), "deferred"); err != nil {
		t.Fatalf("deferred create invisible to lookup: %v", err)
	}
	// Inode write-back performs the real insert and releases the pin.
	fs.WriteAttr(h, vfs.Attr{Size: 10, Nlink: 1})
	if _, ok, _ := fs.store.Meta().Get(keys.MetaKey("deferred")); !ok {
		t.Fatal("write-back did not insert the inode")
	}
	if len(fs.pending) != 0 {
		t.Fatal("pending table not drained")
	}
}

func TestConditionalLoggingPinsLog(t *testing.T) {
	_, fs := newFS(t, nil)
	fs.Create(fs.Root(), "pinme", false)
	live := fs.store.Log().LiveBytes()
	fs.store.Checkpoint() // reclaim is blocked by the pin
	if fs.store.Log().LiveBytes() == 0 && live > 0 {
		t.Fatal("checkpoint reclaimed a pinned log section")
	}
	fs.flushPending("pinme")
	fs.store.Checkpoint()
	if fs.store.Log().LiveBytes() != 0 {
		t.Fatal("log not reclaimed after unpin")
	}
}

func TestReaddirMergesPendingCreates(t *testing.T) {
	_, fs := newFS(t, nil)
	fs.Create(fs.Root(), "a", false)
	h, _, _ := fs.Create(fs.Root(), "d", true)
	fs.Create(h, "inner", false)
	ents, err := fs.ReadDir(fs.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("root has %d entries, want 2 (a, d)", len(ents))
	}
	inner, _ := fs.ReadDir(h)
	if len(inner) != 1 || inner[0].Name != "inner" {
		t.Fatalf("inner dir listing wrong: %v", inner)
	}
}

func TestNlinkEmptyCheckAvoidsQueries(t *testing.T) {
	_, fs := newFS(t, nil)
	d, _, _ := fs.Create(fs.Root(), "dir", true)
	c, _, _ := fs.Create(d, "child", false)
	if err := fs.Remove(fs.Root(), "dir", d, true); err != vfs.ErrNotEmpty {
		t.Fatalf("rmdir of non-empty dir: %v", err)
	}
	if fs.Stats().EmptyDirChecksByNlink == 0 {
		t.Fatal("emptiness check did not use nlink")
	}
	if fs.Stats().EmptyDirChecksByQuery != 0 {
		t.Fatal("emptiness check fell back to a tree query despite nlink")
	}
	fs.Remove(d, "child", c, false)
	if err := fs.Remove(fs.Root(), "dir", d, true); err != nil {
		t.Fatalf("rmdir of now-empty dir: %v", err)
	}
}

func TestEmptyCheckByQueryWithoutRG(t *testing.T) {
	_, fs := newFS(t, func(c *Config) { c.NlinkChecks = false })
	d, _, _ := fs.Create(fs.Root(), "dir", true)
	fs.WriteAttr(d, vfs.Attr{Dir: true, Nlink: 2})
	if err := fs.Remove(fs.Root(), "dir", d, true); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().EmptyDirChecksByQuery == 0 {
		t.Fatal("v0.4-style emptiness check should query the tree")
	}
}

func TestRedundantDeletesFlag(t *testing.T) {
	count := func(redundant bool) int64 {
		_, fs := newFS(t, func(c *Config) { c.RedundantDeletes = redundant; c.ConditionalLogging = false })
		h, _, _ := fs.Create(fs.Root(), "f", false)
		before := fs.store.Meta().Stats().Deletes
		fs.Remove(fs.Root(), "f", h, false)
		return fs.store.Meta().Stats().Deletes - before
	}
	if v04, v06 := count(true), count(false); v04 != v06+1 {
		t.Fatalf("redundant delete flag: v0.4 sent %d deletes, v0.6 %d", v04, v06)
	}
}

func TestDirRangeDeleteEmitted(t *testing.T) {
	_, fs := newFS(t, nil)
	d, _, _ := fs.Create(fs.Root(), "dir", true)
	if err := fs.Remove(fs.Root(), "dir", d, true); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().DirRangeDeletes != 1 {
		t.Fatal("rmdir did not emit the directory-wide range delete (RG)")
	}
}

func TestRenameMovesDataKeys(t *testing.T) {
	env, fs := newFS(t, nil)
	h, _, _ := fs.Create(fs.Root(), "old", false)
	pg := &vfs.Page{Data: make([]byte, 4096)}
	pg.Data[0] = 0x77
	fs.WriteBlocks(h, 0, []*vfs.Page{pg}, false)
	nh, err := fs.Rename(fs.Root(), "old", h, fs.Root(), "new")
	if err != nil {
		t.Fatal(err)
	}
	out := &vfs.Page{Data: make([]byte, 4096)}
	fs.ReadBlocks(nh, 0, []*vfs.Page{out}, false)
	if out.Data[0] != 0x77 {
		t.Fatal("rename lost data blocks")
	}
	if _, ok, _ := fs.store.Data().Get(keys.DataKey("old", 0)); ok {
		t.Fatal("old data keys survived rename")
	}
	// A directory rename moves its descendants' keys in both indexes; the
	// registry counter and the Stats field count each moved key once.
	d, _, _ := fs.Create(fs.Root(), "dir", true)
	c, _, _ := fs.Create(d, "child", false)
	fs.WriteAttr(c, vfs.Attr{Nlink: 1})
	fs.WriteBlocks(c, 0, []*vfs.Page{{Data: make([]byte, 4096)}}, false)
	if _, err := fs.Rename(fs.Root(), "dir", d, fs.Root(), "dir2"); err != nil {
		t.Fatal(err)
	}
	if got, want := env.Metrics.Snapshot().Counters["betrfs.rename.keys"], fs.Stats().RenamedKeys; got != want || want != 3 {
		t.Fatalf("betrfs.rename.keys = %d, Stats().RenamedKeys = %d, want both 3", got, want)
	}
}

func TestBlindWritesReachTree(t *testing.T) {
	_, fs := newFS(t, nil)
	h, _, _ := fs.Create(fs.Root(), "f", false)
	fs.WritePartial(h, 2, 100, []byte{1, 2, 3}, false)
	out := &vfs.Page{Data: make([]byte, 4096)}
	fs.ReadBlocks(h, 2, []*vfs.Page{out}, false)
	if out.Data[100] != 1 || out.Data[102] != 3 {
		t.Fatal("blind partial write not visible")
	}
}

func TestUnloggedDataForcesFsyncCheckpoint(t *testing.T) {
	_, fs := newFS(t, nil)
	h, _, _ := fs.Create(fs.Root(), "bulk", false)
	pg := &vfs.Page{Data: make([]byte, 4096)}
	fs.WriteBlocks(h, 0, []*vfs.Page{pg}, false) // background: key-only logged
	before := fs.store.Stats().Checkpoints
	fs.Fsync(h)
	if fs.store.Stats().Checkpoints != before+1 {
		t.Fatal("fsync after unlogged bulk data must checkpoint")
	}
	// A second fsync with nothing unlogged is the cheap path.
	before = fs.store.Stats().Checkpoints
	fs.Fsync(h)
	if fs.store.Stats().Checkpoints != before {
		t.Fatal("clean fsync should not checkpoint")
	}
}

func TestPageSharingPinsPages(t *testing.T) {
	_, fs := newFS(t, nil)
	h, _, _ := fs.Create(fs.Root(), "f", false)
	pg := &vfs.Page{Data: make([]byte, 4096)}
	fs.WriteBlocks(h, 0, []*vfs.Page{pg}, false)
	if !pg.Pinned() {
		t.Fatal("page sharing did not pin the written page")
	}
	_, fs2 := newFS(t, func(c *Config) { c.Tree.PageSharing = false })
	h2, _, _ := fs2.Create(fs2.Root(), "f", false)
	pg2 := &vfs.Page{Data: make([]byte, 4096)}
	fs2.WriteBlocks(h2, 0, []*vfs.Page{pg2}, false)
	if pg2.Pinned() {
		t.Fatal("v0.4 copy-on-ingest must not pin pages")
	}
}

func TestManyFilesScanOrder(t *testing.T) {
	_, fs := newFS(t, nil)
	d, _, _ := fs.Create(fs.Root(), "dir", true)
	for i := 0; i < 200; i++ {
		h, _, _ := fs.Create(d, fmt.Sprintf("f%03d", i), false)
		fs.WriteAttr(h, vfs.Attr{Nlink: 1})
	}
	ents, _ := fs.ReadDir(d)
	if len(ents) != 200 {
		t.Fatalf("%d entries", len(ents))
	}
	for i := 1; i < len(ents); i++ {
		if ents[i-1].Name >= ents[i].Name {
			t.Fatal("readdir out of key order")
		}
	}
	if !ents[0].Known {
		t.Fatal("DC: entries should carry inodes")
	}
}

func TestAttrRoundTrip(t *testing.T) {
	a := vfs.Attr{Dir: true, Size: 123456789, Nlink: 7, Mtime: 42}
	if got := decodeAttr(encodeAttr(a)); got != a {
		t.Fatalf("attr round trip: %+v != %+v", got, a)
	}
}
