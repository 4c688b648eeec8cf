package vfs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/metrics/metricstest"
	"betrfs/internal/sim"
	"betrfs/internal/systems"
	"betrfs/internal/vfs"
)

// Frame-safety checks over BetrFS v0.6, where the Bε-tree pins written
// pages (page sharing) and so shares the frame lifecycle with the page
// cache: a leak check that every frame comes back once both sides have
// let go, and an aliasing check that no read ever sees a recycled frame.

// cachePages is the page cache of the aliasing program: small enough that
// eviction, write-back and copy-on-write of pinned pages all happen often.
const cachePages = 64

// mountV06 mounts betrfs-v0.6 with a 64-page page cache and 256 KiB
// nodes, so the little data the program writes still builds interior nodes
// whose buffers flush. workers > 0 gives the concurrent mount with that
// many background flushers: a flush that supersedes a pinned page's value
// makes the final Release of that page off the mount's goroutine.
// nodeCache is the node cache's budget (8 MiB when zero).
func mountV06(t *testing.T, seed uint64, workers int, nodeCache int64) (*sim.Env, *vfs.Mount, *betrfs.FS) {
	t.Helper()
	sys, err := systems.Lookup("betrfs-v0.6")
	if err != nil {
		t.Fatal(err)
	}
	sys.Betr.Tree.NodeSize = 256 << 10
	sys.Betr.Tree.BasementSize = 32 << 10
	env := sim.NewEnv(seed)
	if nodeCache == 0 {
		nodeCache = 8 << 20
	}
	sz := systems.Sizes{NodeCache: nodeCache, PageCache: cachePages * vfs.PageSize}
	if workers > 0 {
		env.Pool.SetWorkers(workers)
		sz.Concurrent = true
		t.Cleanup(env.Pool.Close)
	}
	st, err := sys.New(env, blockdev.New(env, sys.Device().Scale(512)), sz)
	if err != nil {
		t.Fatal(err)
	}
	return env, st.Mount, st.FS.(*betrfs.FS)
}

// shadowProgram drives a seeded mix of full-page and partial overwrites,
// truncates, fsyncs, reads and cache drops over its own files, checking
// every read against a shadow copy. It returns the first failure.
func shadowProgram(m *vfs.Mount, seed int64, prefix string, ops int, drops bool) error {
	rnd := rand.New(rand.NewSource(seed))
	const files = 3
	const maxSize = 40 * vfs.PageSize
	shadow := make([][]byte, files)
	handles := make([]*vfs.File, files)
	for i := range handles {
		f, err := m.Create(fmt.Sprintf("%s%d", prefix, i))
		if err != nil {
			return err
		}
		handles[i] = f
	}
	fill := func(n int) []byte {
		b := make([]byte, n)
		rnd.Read(b)
		return b
	}
	write := func(i int, off int, data []byte) error {
		if _, err := handles[i].WriteAt(data, int64(off)); err != nil {
			return fmt.Errorf("write %d@%d: %w", len(data), off, err)
		}
		if end := off + len(data); end > len(shadow[i]) {
			shadow[i] = append(shadow[i], make([]byte, end-len(shadow[i]))...)
		}
		copy(shadow[i][off:], data)
		return nil
	}
	check := func(i, off, n int) error {
		got := make([]byte, n)
		k, err := handles[i].ReadAt(got, int64(off))
		if err != nil {
			return fmt.Errorf("read %d@%d: %w", n, off, err)
		}
		want := []byte{}
		if off < len(shadow[i]) {
			want = shadow[i][off:min(off+n, len(shadow[i]))]
		}
		if !bytes.Equal(got[:k], want) {
			return fmt.Errorf("read %d@%d differs from what was written", n, off)
		}
		return nil
	}
	for op := 0; op < ops; op++ {
		i := rnd.Intn(files)
		var err error
		switch r := rnd.Intn(100); {
		case r < 30: // full-page overwrites: COW when the tree pins the page
			blk := rnd.Intn(maxSize / vfs.PageSize)
			err = write(i, blk*vfs.PageSize, fill((1+rnd.Intn(3))*vfs.PageSize))
		case r < 55: // partial overwrites, often across a page boundary
			err = write(i, rnd.Intn(maxSize), fill(1+rnd.Intn(2*vfs.PageSize)))
		case r < 62:
			size := rnd.Intn(maxSize)
			err = handles[i].Truncate(int64(size))
			if size < len(shadow[i]) {
				shadow[i] = shadow[i][:size]
			} else {
				shadow[i] = append(shadow[i], make([]byte, size-len(shadow[i]))...)
			}
		case r < 68:
			err = handles[i].Fsync()
		case r < 70:
			if drops {
				m.DropCaches()
			} else {
				m.Writeback()
			}
		default:
			err = check(i, rnd.Intn(maxSize), 1+rnd.Intn(8*vfs.PageSize))
		}
		if err != nil {
			return fmt.Errorf("%s%d, op %d: %w", prefix, i, op, err)
		}
	}
	for i := range handles {
		if err := check(i, 0, maxSize+vfs.PageSize); err != nil {
			return fmt.Errorf("%s%d, final read: %w", prefix, i, err)
		}
	}
	return nil
}

// coldNodes is a node-cache budget below one node's size: descents decode
// their nodes afresh, so node images are borrowed and come back to the
// pool all the time.
const coldNodes = 64 << 10

// TestFramesAliasing runs the shadow program on the single-goroutine mount
// and, with two clients, on the concurrent mount, each with the default
// node cache and with coldNodes. Meant for -race too, where a value read
// after its frame or node image went back shows as a data race.
func TestFramesAliasing(t *testing.T) {
	for _, nodeCache := range []int64{0, coldNodes} {
		name := ""
		// checkCold fails unless the node cache evicted, so that the
		// program's reads decoded nodes from disk.
		checkCold := func(t *testing.T, env *sim.Env) {}
		if nodeCache == coldNodes {
			name = "coldnodes/"
			checkCold = func(t *testing.T, env *sim.Env) {
				if metricstest.Counter(t, env.Metrics, "betree.cache.evict") == 0 {
					t.Fatal("the node cache never evicted")
				}
			}
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%ssingle/seed%d", name, seed), func(t *testing.T) {
				env, m, _ := mountV06(t, uint64(seed), 0, nodeCache)
				if err := shadowProgram(m, seed, "f", 1500, true); err != nil {
					t.Fatal(err)
				}
				cow := metricstest.Counter(t, env.Metrics, "vfs.page.cow")
				evict := metricstest.Counter(t, env.Metrics, "vfs.page.evict")
				if cow == 0 || evict == 0 {
					t.Fatalf("program never copied a pinned page (%d) or evicted one (%d)", cow, evict)
				}
				checkCold(t, env)
			})
			t.Run(fmt.Sprintf("%sconcurrent/seed%d", name, seed), func(t *testing.T) {
				env, m, _ := mountV06(t, uint64(seed), 3, nodeCache)
				var wg sync.WaitGroup
				errs := make([]error, 2)
				for c := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[c] = shadowProgram(m, seed*10+int64(c), fmt.Sprintf("c%d-", c), 1000, c == 0)
					}()
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				if metricstest.Counter(t, env.Metrics, "vfs.page.cow") == 0 {
					t.Fatal("program never copied a pinned page")
				}
				if metricstest.Counter(t, env.Metrics, "flusher.flush.bg") == 0 {
					t.Fatal("no background flush ran: every Release stayed on the mount's goroutine")
				}
				// During the program a sweep evicts only nodes the flushers
				// have cleaned, so whether it evicts at all is a race with
				// write-back. The cold phase does not race: with every node
				// clean and the node cache emptied, reading the files back
				// decodes their nodes through a budget far below their size.
				m.DropCaches()
				buf := make([]byte, 41*vfs.PageSize)
				for c := range errs {
					for i := 0; i < 3; i++ {
						f, err := m.Open(fmt.Sprintf("c%d-%d", c, i))
						if err != nil {
							t.Fatal(err)
						}
						if _, err := f.ReadAt(buf, 0); err != nil {
							t.Fatal(err)
						}
						f.Close()
					}
				}
				checkCold(t, env)
			})
		}
	}
}

// TestImagesComeBack runs the shadow program on a v0.6 mount, in
// deterministic and in concurrent mode; once Sync and DropCaches have
// emptied the node cache, no decoded value borrows a node image any more.
func TestImagesComeBack(t *testing.T) {
	for _, workers := range []int{0, 3} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			_, m, fs := mountV06(t, 5, workers, 0)
			if err := shadowProgram(m, 5, "f", 600, true); err != nil {
				t.Fatal(err)
			}
			store := fs.Store()
			if store.ImagesOut() == 0 {
				t.Fatal("no node image borrowed before the drop")
			}
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			m.DropCaches()
			if n := store.ImagesOut(); n != 0 {
				t.Fatalf("%d node images still borrowed", n)
			}
		})
	}
}

// TestImagesComeBackAfterDeletes fills two directories on a v0.6 mount,
// reads them back cold so leaf values borrow their node images, then
// unlinks one directory's files in name order (each a delete at the front
// of what is left) and removes the other with one range delete, in
// deterministic and in concurrent mode. Once Sync and DropCaches have
// emptied the node cache, no node image may still be borrowed: a basement
// cut that left a deleted value reachable would keep its image out.
func TestImagesComeBackAfterDeletes(t *testing.T) {
	for _, workers := range []int{0, 3} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			env, m, fs := mountV06(t, 9, workers, 0)
			const files = 300
			data := bytes.Repeat([]byte("betrfs"), 900)
			for _, dir := range []string{"d0", "d1"} {
				if err := m.Mkdir(dir); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < files; i++ {
					f, err := m.Create(fmt.Sprintf("%s/f%04d", dir, i))
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.Write(data[:1000+i*10]); err != nil {
						t.Fatal(err)
					}
					f.Close()
				}
			}
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			m.DropCaches()
			buf := make([]byte, len(data))
			for _, dir := range []string{"d0", "d1"} {
				for i := 0; i < files; i++ {
					f, err := m.Open(fmt.Sprintf("%s/f%04d", dir, i))
					if err != nil {
						t.Fatal(err)
					}
					if n, err := f.ReadAt(buf, 0); n != 1000+i*10 || !bytes.Equal(buf[:n], data[:n]) {
						t.Fatalf("%s/f%04d: read %d bytes (%v)", dir, i, n, err)
					}
					f.Close()
				}
			}
			store := fs.Store()
			if store.ImagesOut() == 0 {
				t.Fatal("no node image borrowed after the cold reads")
			}
			for i := 0; i < files; i++ {
				if err := m.Remove(fmt.Sprintf("d0/f%04d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.RemoveAll("d1"); err != nil {
				t.Fatal(err)
			}
			if metricstest.Counter(t, env.Metrics, "betrfs.rangedelete.dir") == 0 {
				t.Fatal("removing d1 issued no range delete")
			}
			if ents, err := m.ReadDir("d0"); err != nil || len(ents) != 0 {
				t.Fatalf("d0 lists %d entries (%v) after every unlink", len(ents), err)
			}
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			m.DropCaches()
			if n := store.ImagesOut(); n != 0 {
				t.Fatalf("%d node images still borrowed", n)
			}
		})
	}
}

// TestFramesComeBack writes, overwrites and truncates files on a v0.6
// mount; once Sync and DropCaches have made the cache and the tree let go
// of every page, every frame handed out must have come back.
func TestFramesComeBack(t *testing.T) {
	_, m, _ := mountV06(t, 7, 0, 0)
	if err := shadowProgram(m, 7, "f", 600, false); err != nil {
		t.Fatal(err)
	}
	if m.FramesOut() == 0 {
		t.Fatal("no frames in use before the drop")
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	m.DropCaches()
	if n := m.FramesOut(); n != 0 {
		t.Fatalf("%d page frames never came back", n)
	}
}
