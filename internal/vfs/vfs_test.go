package vfs

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"betrfs/internal/metrics/metricstest"
	"betrfs/internal/sim"
)

// memFS is a trivial in-memory FS used to test the VFS layer in isolation.
type memFS struct {
	env     *sim.Env
	nodes   map[int]*memNode
	nextIno int

	blocksWritten   int64
	writeCalls      int64
	partialWrites   int64
	readCalls       int64
	attrWrites      int64
	fsyncs          int64
	maintains       int64
	blind           bool
	failPartial     error // returned by WritePartial when set
	lastWriteRunLen int
}

type memNode struct {
	dir      bool
	size     int64
	children map[string]int
	blocks   map[int64][]byte
}

func newMemFS(env *sim.Env) *memFS {
	fs := &memFS{env: env, nodes: map[int]*memNode{}, nextIno: 2}
	fs.nodes[1] = &memNode{dir: true, children: map[string]int{}}
	return fs
}

func (f *memFS) Root() Handle { return 1 }

func (f *memFS) Lookup(parent Handle, name string) (Handle, Attr, error) {
	p := f.nodes[parent.(int)]
	ino, ok := p.children[name]
	if !ok {
		return nil, Attr{}, ErrNotExist
	}
	n := f.nodes[ino]
	return ino, Attr{Dir: n.dir, Size: n.size, Nlink: 1}, nil
}

func (f *memFS) Create(parent Handle, name string, dir bool) (Handle, Attr, error) {
	p := f.nodes[parent.(int)]
	if _, ok := p.children[name]; ok {
		return nil, Attr{}, ErrExist
	}
	ino := f.nextIno
	f.nextIno++
	n := &memNode{dir: dir, blocks: map[int64][]byte{}}
	if dir {
		n.children = map[string]int{}
	}
	f.nodes[ino] = n
	p.children[name] = ino
	return ino, Attr{Dir: dir, Nlink: 1}, nil
}

func (f *memFS) Remove(parent Handle, name string, h Handle, dir bool) error {
	p := f.nodes[parent.(int)]
	ino, ok := p.children[name]
	if !ok {
		return ErrNotExist
	}
	if dir && len(f.nodes[ino].children) > 0 {
		return ErrNotEmpty
	}
	delete(p.children, name)
	delete(f.nodes, ino)
	return nil
}

func (f *memFS) Rename(op Handle, on string, h Handle, np Handle, nn string) (Handle, error) {
	o := f.nodes[op.(int)]
	n := f.nodes[np.(int)]
	ino, ok := o.children[on]
	if !ok {
		return nil, ErrNotExist
	}
	delete(o.children, on)
	n.children[nn] = ino
	return ino, nil
}

func (f *memFS) ReadDir(h Handle) ([]DirEntry, error) {
	n := f.nodes[h.(int)]
	var out []DirEntry
	for name, ino := range n.children {
		out = append(out, DirEntry{Name: name, Dir: f.nodes[ino].dir})
	}
	return out, nil
}

func (f *memFS) WriteAttr(h Handle, a Attr) error {
	f.attrWrites++
	f.nodes[h.(int)].size = a.Size
	return nil
}

func (f *memFS) ReadBlocks(h Handle, blk int64, pages []*Page, seq bool) error {
	f.readCalls++
	n := f.nodes[h.(int)]
	for i, pg := range pages {
		if b, ok := n.blocks[blk+int64(i)]; ok {
			copy(pg.Data, b)
		} else {
			for j := range pg.Data {
				pg.Data[j] = 0
			}
		}
	}
	return nil
}

func (f *memFS) WriteBlocks(h Handle, blk int64, pgs []*Page, durable bool) error {
	f.writeCalls++
	f.lastWriteRunLen = len(pgs)
	n := f.nodes[h.(int)]
	for i, pg := range pgs {
		b := blk + int64(i)
		n.blocks[b] = append(n.blocks[b][:0], pg.Data...)
		f.blocksWritten++
	}
	return nil
}

func (f *memFS) WritePartial(h Handle, blk int64, off int, data []byte, durable bool) error {
	if f.failPartial != nil {
		return f.failPartial
	}
	f.partialWrites++
	n := f.nodes[h.(int)]
	b, ok := n.blocks[blk]
	if !ok {
		b = make([]byte, PageSize)
	}
	copy(b[off:], data)
	n.blocks[blk] = b
	return nil
}

func (f *memFS) SupportsBlindWrites() bool { return f.blind }
func (f *memFS) TruncateBlocks(h Handle, fromBlk int64) error {
	n := f.nodes[h.(int)]
	for b := range n.blocks {
		if b >= fromBlk {
			delete(n.blocks, b)
		}
	}
	return nil
}
func (f *memFS) Fsync(h Handle) error { f.fsyncs++; return nil }
func (f *memFS) Sync() error          { return nil }
func (f *memFS) Maintain()            { f.maintains++ }
func (f *memFS) DropCaches()          {}

func newTestMount(t testing.TB, mutate func(*Config)) (*sim.Env, *memFS, *Mount) {
	t.Helper()
	env := sim.NewEnv(1)
	fs := newMemFS(env)
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 20 // small cache: exercise eviction
	if mutate != nil {
		mutate(&cfg)
	}
	return env, fs, NewMount(env, fs, cfg)
}

func TestDcacheAvoidsRepeatLookups(t *testing.T) {
	_, fs, m := newTestMount(t, nil)
	m.MkdirAll("a/b")
	f, _ := m.Create("a/b/c")
	f.Close()
	before := metricstest.Counter(t, m.env.Metrics, "vfs.lookup.fs")
	for i := 0; i < 10; i++ {
		if _, err := m.Stat("a/b/c"); err != nil {
			t.Fatal(err)
		}
	}
	if n := metricstest.Counter(t, m.env.Metrics, "vfs.lookup.fs"); n != before {
		t.Fatalf("dcache missed: %d extra FS lookups", n-before)
	}
	_ = fs
}

func TestNegativeDentry(t *testing.T) {
	_, _, m := newTestMount(t, nil)
	m.Stat("ghost")
	before := metricstest.Counter(t, m.env.Metrics, "vfs.lookup.fs")
	m.Stat("ghost")
	if metricstest.Counter(t, m.env.Metrics, "vfs.lookup.fs") != before {
		t.Fatal("negative dentry not cached")
	}
	// Creating the file must invalidate the negative entry.
	f, err := m.Create("ghost")
	if err != nil {
		t.Fatalf("create over negative dentry: %v", err)
	}
	f.Close()
	if _, err := m.Stat("ghost"); err != nil {
		t.Fatalf("stat after create: %v", err)
	}
}

func TestWritebackCoalescesRuns(t *testing.T) {
	_, fs, m := newTestMount(t, func(c *Config) { c.CacheBytes = 64 << 20 })
	f, _ := m.Create("big")
	f.Write(make([]byte, 128*PageSize))
	f.Fsync()
	if fs.writeCalls == 0 {
		t.Fatal("no writes issued")
	}
	perCall := float64(fs.blocksWritten) / float64(fs.writeCalls)
	if perCall < 32 {
		t.Fatalf("writeback not coalescing: %.1f blocks/call", perCall)
	}
}

func TestDirtyWatermarkThrottlesWriters(t *testing.T) {
	_, fs, m := newTestMount(t, func(c *Config) { c.CacheBytes = 1 << 20 }) // a 205 KiB watermark
	f, _ := m.Create("f")
	f.Write(make([]byte, 2<<20)) // far beyond the watermark
	if fs.blocksWritten == 0 {
		t.Fatal("balanceDirty never wrote back")
	}
}

func TestCleanPageEviction(t *testing.T) {
	_, _, m := newTestMount(t, func(c *Config) { c.CacheBytes = 256 << 10 })
	f, _ := m.Create("f")
	f.Write(make([]byte, 1<<20))
	f.Fsync()
	buf := make([]byte, PageSize)
	for i := 0; i < 256; i++ {
		f.ReadAt(buf, int64(i)*PageSize)
	}
	if metricstest.Counter(t, m.env.Metrics, "vfs.page.evict") == 0 {
		t.Fatal("page cache never evicted despite tiny budget")
	}
}

func TestBlindWriteRouting(t *testing.T) {
	_, fs, m := newTestMount(t, nil)
	fs.blind = true
	f, _ := m.Create("f")
	f.Write(make([]byte, 4*PageSize))
	f.Fsync()
	m.DropCaches()
	g, _ := m.Open("f")
	g.WriteAt([]byte{1, 2, 3}, 100)
	if fs.partialWrites != 1 {
		t.Fatalf("expected 1 blind partial write, got %d", fs.partialWrites)
	}
	// A clean cached page takes the blind path too.
	g.ReadAt(make([]byte, PageSize), 2*PageSize)
	g.WriteAt([]byte{9}, 2*PageSize+5)
	if fs.partialWrites != 2 {
		t.Fatalf("sub-page write to a clean cached page: %d blind writes in all, want 2", fs.partialWrites)
	}
	if n := metricstest.Counter(t, m.env.Metrics, "vfs.write.blind.cached"); n != 1 {
		t.Fatalf("vfs.write.blind.cached = %d, want 1", n)
	}
}

// cleanCachedFile returns a mount over a blind-writing memFS and a file of
// four blocks, each filled with its own byte, whose pages are all cached
// clean.
func cleanCachedFile(t *testing.T) (*memFS, *Mount, *File, []byte) {
	t.Helper()
	_, fs, m := newTestMount(t, nil)
	fs.blind = true
	f, _ := m.Create("f")
	want := make([]byte, 4*PageSize)
	for i := range want {
		want[i] = byte(1 + i/PageSize)
	}
	f.WriteAt(want, 0)
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	for blk, pg := range f.ino.pages {
		if pg.Dirty {
			t.Fatalf("page %d still dirty after fsync", blk)
		}
	}
	return fs, m, f, want
}

// readBack fails the test unless f reads back as want.
func readBack(t *testing.T, f *File, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if n, err := f.ReadAt(got, 0); err != nil || n != len(want) || !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes (%v), differing from what was written", n, err)
	}
}

// TestBlindPatchKeepsPageClean: a patch into a clean cached page goes to
// the FS as one blind write and into the cached copy, which stays clean,
// so an fsync writes back no page; the patch reads back from the cache and,
// after the caches are dropped, from the FS.
func TestBlindPatchKeepsPageClean(t *testing.T) {
	fs, m, f, want := cleanCachedFile(t)
	partials, writes := fs.partialWrites, fs.writeCalls
	f.WriteAt([]byte("patch"), PageSize+100)
	copy(want[PageSize+100:], "patch")
	if fs.partialWrites != partials+1 {
		t.Fatalf("%d blind writes, want 1", fs.partialWrites-partials)
	}
	if pg := f.ino.pages[1]; pg == nil || pg.Dirty {
		t.Fatal("the patched page is gone from the cache or dirty")
	}
	readBack(t, f, want)
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if fs.writeCalls != writes {
		t.Fatalf("fsync wrote back %d page runs after a blind patch, want none", fs.writeCalls-writes)
	}
	m.DropCaches()
	g, err := m.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	readBack(t, g, want)
}

// TestBlindPatchOfPinnedPage: a patch into a clean page the FS still pins
// lands in a copy, which takes the pinned page's place on the clean LRU,
// so eviction still sees every cached page.
func TestBlindPatchOfPinnedPage(t *testing.T) {
	_, m, f, want := cleanCachedFile(t)
	pinned := f.ino.pages[0]
	pinned.Pin()
	clean := m.cleanBytes
	f.WriteAt([]byte{0xab}, 9)
	want[9] = 0xab
	pg := f.ino.pages[0]
	if pg == pinned || pinned.Data[9] == 0xab {
		t.Fatal("the patch did not go to a copy of the pinned page")
	}
	if pg.Dirty || pg.list != &m.lru || m.cleanBytes != clean {
		t.Fatal("the copy is not on the clean LRU in the pinned page's place")
	}
	readBack(t, f, want)
	pinned.Release()
}

// TestDirtyPagePatchedInPlace: a patch into a dirty cached page lands in
// the page, which write-back will send whole anyway; the FS sees no blind
// write.
func TestDirtyPagePatchedInPlace(t *testing.T) {
	fs, _, f, want := cleanCachedFile(t)
	f.WriteAt(want[2*PageSize:3*PageSize], 2*PageSize) // a full overwrite dirties the page
	partials := fs.partialWrites
	f.WriteAt([]byte{0xee}, 2*PageSize+7)
	want[2*PageSize+7] = 0xee
	if fs.partialWrites != partials {
		t.Fatalf("a patch into a dirty page made %d blind writes", fs.partialWrites-partials)
	}
	if !f.ino.pages[2].Dirty {
		t.Fatal("the patched dirty page went clean")
	}
	readBack(t, f, want)
	f.Fsync()
	if got := fs.nodes[f.ino.h.(int)].blocks[2][7]; got != 0xee {
		t.Fatalf("write-back sent byte %#x, want the patch", got)
	}
}

// TestFailedBlindPatchLeavesCache: when the FS refuses a blind write to a
// clean cached page, the write fails and the cached bytes stay as they
// were, still clean.
func TestFailedBlindPatchLeavesCache(t *testing.T) {
	fs, _, f, want := cleanCachedFile(t)
	fs.failPartial = ErrNoSpace
	if n, err := f.WriteAt([]byte("lost"), 3*PageSize+9); err != ErrNoSpace || n != 0 {
		t.Fatalf("WriteAt = %d, %v; want 0, %v", n, err, ErrNoSpace)
	}
	if f.ino.pages[3].Dirty {
		t.Fatal("a failed blind write dirtied the page")
	}
	readBack(t, f, want)
}

// TestStraddlingPatchSendsTwoPartials: a write across the boundary of two
// clean cached pages is one blind write per page.
func TestStraddlingPatchSendsTwoPartials(t *testing.T) {
	fs, m, f, want := cleanCachedFile(t)
	partials := fs.partialWrites
	f.WriteAt([]byte("12345678"), 2*PageSize-4)
	copy(want[2*PageSize-4:], "12345678")
	if fs.partialWrites != partials+2 {
		t.Fatalf("%d blind writes, want 2", fs.partialWrites-partials)
	}
	if f.ino.pages[1].Dirty || f.ino.pages[2].Dirty {
		t.Fatal("a straddled page went dirty")
	}
	readBack(t, f, want)
	m.DropCaches()
	g, _ := m.Open("f")
	readBack(t, g, want)
}

func TestRMWFallback(t *testing.T) {
	_, fs, m := newTestMount(t, nil)
	fs.blind = false
	f, _ := m.Create("f")
	f.Write(make([]byte, 2*PageSize))
	f.Fsync()
	m.DropCaches()
	g, _ := m.Open("f")
	before := metricstest.Counter(t, m.env.Metrics, "vfs.write.rmw")
	g.WriteAt([]byte{1}, 10)
	if metricstest.Counter(t, m.env.Metrics, "vfs.write.rmw") != before+1 {
		t.Fatal("sub-page write without blind support should read-modify-write")
	}
}

func TestInodeWritebackOnExpiry(t *testing.T) {
	env, fs, m := newTestMount(t, nil)
	f, _ := m.Create("f")
	f.Write([]byte("x"))
	f.Close()
	if fs.attrWrites != 0 {
		t.Fatal("inode written back too eagerly")
	}
	env.Charge(dirtyExpire + maintainInterval)
	m.Stat("f") // any op triggers maintain
	if fs.attrWrites == 0 {
		t.Fatal("expired dirty inode never written back")
	}
}

func TestPinnedPageCopyOnWrite(t *testing.T) {
	_, fs, m := newTestMount(t, nil)
	f, _ := m.Create("f")
	f.Write(bytes.Repeat([]byte{1}, PageSize))
	// Simulate the FS pinning the page at writeback (page sharing).
	var pinned *Page
	for _, pg := range m.icache[2].pages {
		pinned = pg
	}
	m.writebackAll(false)
	pinned.Pin()
	old := pinned.Data[0]
	f.WriteAt([]byte{7}, 0)
	if pinned.Data[0] != old {
		t.Fatal("write mutated a pinned page (CoW violated)")
	}
	if n := metricstest.Counter(t, m.env.Metrics, "vfs.page.cow"); n != 1 {
		t.Fatalf("vfs.page.cow=%d, want 1", n)
	}
	_ = fs
}

func TestTruncateDiscardsData(t *testing.T) {
	_, _, m := newTestMount(t, nil)
	f, _ := m.Create("f")
	f.Write(make([]byte, 4*PageSize))
	f.Truncate(PageSize)
	if f.Size() != PageSize {
		t.Fatalf("size=%d", f.Size())
	}
	buf := make([]byte, PageSize)
	n, _ := f.ReadAt(buf, PageSize)
	if n != 0 {
		t.Fatal("read past truncation point")
	}
}

func TestReadAheadGrowsSequentially(t *testing.T) {
	_, fs, m := newTestMount(t, func(c *Config) { c.CacheBytes = 64 << 20 })
	f, _ := m.Create("f")
	f.Write(make([]byte, 256*PageSize))
	f.Fsync()
	m.DropCaches()
	g, _ := m.Open("f")
	buf := make([]byte, PageSize)
	fs.readCalls = 0
	for i := 0; i < 256; i++ {
		g.ReadAt(buf, int64(i)*PageSize)
	}
	// With read-ahead growth, 256 page reads should need far fewer FS
	// calls than 256.
	if fs.readCalls > 40 {
		t.Fatalf("read-ahead ineffective: %d FS read calls for 256 pages", fs.readCalls)
	}
}

func TestConcurrentFilesIndependentCursors(t *testing.T) {
	_, _, m := newTestMount(t, nil)
	for i := 0; i < 5; i++ {
		f, _ := m.Create(fmt.Sprintf("f%d", i))
		f.Write([]byte(fmt.Sprintf("content-%d", i)))
		f.Close()
	}
	var files []*File
	for i := 0; i < 5; i++ {
		f, err := m.Open(fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	buf := make([]byte, 16)
	for i, f := range files {
		n, _ := f.Read(buf)
		if string(buf[:n]) != fmt.Sprintf("content-%d", i) {
			t.Fatalf("file %d cursor confusion: %q", i, buf[:n])
		}
	}
}

func TestRenameDirInvalidatesDescendants(t *testing.T) {
	_, _, m := newTestMount(t, nil)
	m.MkdirAll("a/b")
	f, _ := m.Create("a/b/f")
	f.Write([]byte("v"))
	f.Close()
	if err := m.Rename("a", "z"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stat("a/b/f"); err != ErrNotExist {
		t.Fatalf("stale path resolvable: %v", err)
	}
	if _, err := m.Stat("z/b/f"); err != nil {
		t.Fatalf("new path unresolvable: %v", err)
	}
}

// TestConcurrentBlindPatches has two writers patch their own files on a
// Concurrent mount whose FS pins every page it writes back and lets go of
// it on another goroutine, so a patch can meet a clean page the FS still
// pins (copy-on-write) or one whose last pin is being released. Run it
// under -race. Each file must read back every patch, from the cache and
// after the caches are dropped.
func TestConcurrentBlindPatches(t *testing.T) {
	env := sim.NewEnv(1)
	fs := &pinFS{memFS: newMemFS(env), pinned: make(chan *Page, 8)}
	fs.blind = true
	m := NewMount(env, fs, Config{CacheBytes: 1 << 20, Concurrent: true})
	released := make(chan struct{})
	go func() {
		defer close(released)
		for pg := range fs.pinned {
			pg.Release()
		}
	}()
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			errs <- func() error {
				f, err := m.Create(fmt.Sprintf("f%d", w))
				if err != nil {
					return err
				}
				want := bytes.Repeat([]byte{byte(w + 1)}, 4*PageSize)
				for i := 0; i < 300; i++ {
					if i%100 == 0 {
						// Rewrite and sync the file: every page clean and
						// pinned until the releaser gets to it.
						if _, err := f.WriteAt(want, 0); err != nil {
							return err
						}
						if err := f.Fsync(); err != nil {
							return err
						}
					}
					off := (i*389 + w*7) % (len(want) - 3)
					patch := []byte{byte(i), byte(w), byte(i >> 8)}
					copy(want[off:], patch)
					if _, err := f.WriteAt(patch, int64(off)); err != nil {
						return err
					}
				}
				got := make([]byte, len(want))
				if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
					return fmt.Errorf("writer %d: cached read lost a patch (%v)", w, err)
				}
				m.DropCaches()
				if _, err := f.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
					return fmt.Errorf("writer %d: read after dropping the caches lost a patch (%v)", w, err)
				}
				return nil
			}()
		}(w)
	}
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(fs.pinned)
	<-released
	if n := metricstest.Counter(t, env.Metrics, "vfs.write.blind.cached"); n == 0 {
		t.Fatal("no patch took the blind path to a cached page")
	}
}

// pinFS is memFS with page sharing: WriteBlocks pins every page it writes
// and hands it to the test, which plays the tree's final Release.
type pinFS struct {
	*memFS
	pinned chan *Page
}

func (f *pinFS) WriteBlocks(h Handle, blk int64, pgs []*Page, durable bool) error {
	for _, pg := range pgs {
		pg.Pin()
		f.pinned <- pg
	}
	return f.memFS.WriteBlocks(h, blk, pgs, durable)
}

// TestCowCopiesBeforeDroppingHold releases the FS's pin of a written page
// on another goroutine as soon as a partial overwrite has made the cache
// let go of it. The copy-on-write must have read the old page before
// dropping the cache's hold: afterwards the frame may be zeroed and reused
// at any moment. Under -race a read after the drop is reported even when
// the release happens to come late.
func TestCowCopiesBeforeDroppingHold(t *testing.T) {
	env := sim.NewEnv(1)
	fs := &pinFS{memFS: newMemFS(env), pinned: make(chan *Page, 1)}
	m := NewMount(env, fs, DefaultConfig())
	f, _ := m.Create("f")
	want := make([]byte, PageSize)
	for i := 0; i < 200; i++ {
		for j := range want {
			want[j] = byte(i + j)
		}
		f.WriteAt(want, 0)
		m.Writeback()
		old := <-fs.pinned
		done := make(chan struct{})
		go func() {
			defer close(done)
			for old.ref.Load() != 2 { // only the pin is left
				runtime.Gosched()
			}
			old.Release()
		}()
		want[7] = 0xee
		f.WriteAt(want[7:8], 7) // copy-on-write of the pinned page
		<-done
		got := make([]byte, PageSize)
		f.ReadAt(got, 0)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: the copied page lost the old contents", i)
		}
	}
	if n := m.FramesOut(); n != 1 {
		t.Fatalf("%d frames out, want the one cached page", n)
	}
}

// TestPageRefWord checks the reference word: the frame comes back to the
// free list, zeroed, only when both the cache and every pin have let go.
func TestPageRefWord(t *testing.T) {
	_, _, m := newTestMount(t, nil)
	f, _ := m.Create("f")
	f.Write(bytes.Repeat([]byte{9}, PageSize))
	m.writebackAll(false)
	pg := m.icache[2].pages[0]
	pg.Pin()
	pg.Pin()
	if !pg.Pinned() {
		t.Fatal("pinned page reports unpinned")
	}
	f.Truncate(0) // the cache lets go first
	if n := m.FramesOut(); n != 1 || len(m.frames.free) != 0 {
		t.Fatalf("frame freed while pinned: %d out, %d free", n, len(m.frames.free))
	}
	pg.Release()
	if !pg.Pinned() || m.FramesOut() != 1 {
		t.Fatal("one release of two pins freed the frame")
	}
	pg.Release()
	if m.FramesOut() != 0 || len(m.frames.free) != 1 {
		t.Fatalf("last release did not return the frame: %d out, %d free", m.FramesOut(), len(m.frames.free))
	}
	f.WriteAt([]byte{1}, 0)
	if got := m.icache[2].pages[0]; got != pg || got.Data[1] != 0 {
		t.Fatal("reused frame is not the freed one, or not zeroed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing an unpinned page did not panic")
		}
	}()
	pg.Release()
}

// TestPageOutsideMount checks that a page built outside a mount pins and
// releases like any other but has no free list to return to.
func TestPageOutsideMount(t *testing.T) {
	pg := &Page{Data: make([]byte, PageSize)}
	pg.Pin()
	if !pg.Pinned() {
		t.Fatal("pin not visible")
	}
	pg.Data[0] = 1
	pg.Release()
	if pg.Pinned() || pg.Data[0] != 1 {
		t.Fatal("release of a page without a mount changed it")
	}
}

// TestWriteEvictCycleAllocatesNoFrame is the allocation guard of the page
// cache: on a warm mount, a full-page write, its write-back and the
// eviction it causes reuse frames from the free list instead of allocating.
func TestWriteEvictCycleAllocatesNoFrame(t *testing.T) {
	_, fs, m := newTestMount(t, func(c *Config) { c.CacheBytes = 4 * PageSize })
	// No background work in the measured cycle: maintain runs only once
	// maintainInterval has passed since this.
	m.lastMaintain = 1 << 62
	f, _ := m.Create("f")
	page := bytes.Repeat([]byte{5}, PageSize)
	blk := 0
	cycle := func() {
		f.WriteAt(page, int64(blk%8)*PageSize)
		blk++
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	evictions, written := metricstest.Counter(t, m.env.Metrics, "vfs.page.evict"), fs.blocksWritten
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("write, write-back and eviction allocate %v times per cycle, want 0", n)
	}
	if metricstest.Counter(t, m.env.Metrics, "vfs.page.evict") == evictions || fs.blocksWritten == written {
		t.Fatal("the cycle neither evicted nor wrote back")
	}
}
