package betree

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"betrfs/internal/stor"
)

// tapFile wraps a tree's file and calls onRead after every successful
// read, with the caller's buffer and the file offset.
type tapFile struct {
	stor.File
	onRead func(p []byte, off int64)
}

func (f *tapFile) ReadAt(p []byte, off int64) error {
	err := f.File.ReadAt(p, off)
	if err == nil {
		f.onRead(p, off)
	}
	return err
}

func (f *tapFile) SubmitRead(p []byte, off int64) stor.Wait {
	wait := f.File.SubmitRead(p, off)
	return func() error {
		err := wait()
		if err == nil {
			f.onRead(p, off)
		}
		return err
	}
}

// TestEvictionKeepsDescentPath runs cold point queries over every leaf of
// a three-level tree through a cache that holds the interior nodes and two
// leaves' worth more. The leaves are visited round-robin across the
// height-1 nodes, so under plain LRU each height-1 node is the coldest
// entry by the time its turn comes again. Interior-last eviction must read
// every interior node from disk exactly once, and the metadata tree's root
// leaf must stay cached while the data tree's leaves cycle through.
func TestEvictionKeepsDescentPath(t *testing.T) {
	_, s := testStore(t, func(c *Config) { c.Fanout = 16 })
	data, meta := s.Data(), s.Meta()
	for i := 0; i < 12000; i++ {
		data.Put(k(i), v(i, 128), LogAuto)
	}
	for i := 0; i < 50; i++ {
		meta.Put(k(i), v(i, 16), LogAuto)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Map the data tree from disk: interior extents, and one key routed
	// to each leaf, grouped by height-1 parent.
	mustRead := func(tr *Tree, id nodeID, key []byte) *node {
		n, err := s.readNode(tr, id, key)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	root := mustRead(data, data.rootID, nil)
	if root.height != 2 {
		t.Fatalf("data tree root has height %d, want 2", root.height)
	}
	interior := map[int64]nodeID{} // extent offset -> node
	var budget int64
	addInterior := func(n *node) {
		ext, _ := data.bt.lookup(n.id)
		interior[ext.off] = n.id
		budget += int64(n.memSize())
	}
	addInterior(root)
	var groups [][][]byte
	var leafMem int64
	for ci, id := range root.children {
		h1 := mustRead(data, id, nil)
		addInterior(h1)
		lo, _ := root.childRange(ci, k(0), nil)
		var group [][]byte
		for li, leaf := range h1.children {
			key, _ := h1.childRange(li, lo, nil)
			group = append(group, key)
			leafMem = max(leafMem, int64(mustRead(data, leaf, key).memSize()))
		}
		groups = append(groups, group)
	}
	if len(groups) < 5 {
		t.Fatalf("only %d height-1 nodes; the round-robin needs at least 5", len(groups))
	}
	metaRoot := mustRead(meta, meta.rootID, nil)
	if !metaRoot.isLeaf() {
		t.Fatal("metadata tree root is not a leaf")
	}
	metaExt, _ := meta.bt.lookup(meta.rootID)
	budget += int64(metaRoot.memSize()) + 2*leafMem

	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	s.cache.shards[0].budget = budget
	reads := map[int64]int{}
	metaReads := 0
	data.f = &tapFile{File: data.f, onRead: func(_ []byte, off int64) { reads[off]++ }}
	meta.f = &tapFile{File: meta.f, onRead: func(_ []byte, off int64) {
		if off == metaExt.off {
			metaReads++
		}
	}}
	getMeta := func() {
		if got, ok, err := meta.Get(k(7)); err != nil || !ok || !bytes.Equal(got, v(7, 16)) {
			t.Fatalf("meta Get: ok=%v err=%v", ok, err)
		}
	}
	getMeta()
	for r := 0; ; r++ {
		visited := false
		for _, group := range groups {
			if r >= len(group) {
				continue
			}
			visited = true
			if _, _, err := data.Get(group[r]); err != nil {
				t.Fatal(err)
			}
		}
		if !visited {
			break
		}
	}
	getMeta()

	if s.cache.shards[0].evictions == 0 {
		t.Fatal("no evictions: the leaves did not cycle through the cache")
	}
	for off, id := range interior {
		if reads[off] != 1 {
			t.Errorf("interior node %d read %d times, want 1", id, reads[off])
		}
	}
	if metaReads != 1 {
		t.Errorf("metadata root leaf read %d times, want 1", metaReads)
	}
	if in, leaf, all := s.m.bytesReadInterior.Load(), s.m.bytesReadLeaf.Load(), s.m.bytesRead.Load(); in+leaf != all {
		t.Errorf("betree.bytes.read.interior %d + .leaf %d != betree.bytes.read %d", in, leaf, all)
	}
}

// TestColdGetAllocatesWhatItReads checks that a cold point query on a big
// leaf allocates about what it reads — the header region and one basement
// — rather than buffers the size of the node's extent.
func TestColdGetAllocatesWhatItReads(t *testing.T) {
	_, s := testStore(t, func(c *Config) {
		c.NodeSize = 4 << 20
		c.BasementSize = 64 << 10
		c.Fanout = 16
		c.CacheBytes = 64 << 20
	})
	tr := s.Data()
	// Permuted keys spread each flush over every basement of a leaf, so
	// the leaves grow to about 4 MiB with basements of about 128 KiB.
	const nkeys = 9000
	for i := 0; i < nkeys; i++ {
		j := i * 7919 % nkeys
		tr.Put(k(j), v(j, 1024), LogAuto)
	}
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	root := tr.mustFetch(tr.rootID, nil)
	tr.unpin(root)
	if root.height != 1 {
		t.Fatalf("root height %d, want 1", root.height)
	}
	var ext extent
	var key []byte
	for ci, id := range root.children {
		if e, _ := tr.bt.lookup(id); e.len > ext.len {
			ext = e
			key, _ = root.childRange(ci, k(0), nil)
		}
	}
	if ext.len < 2<<20 {
		t.Fatalf("largest leaf extent is %d bytes, want at least 2 MiB", ext.len)
	}

	// Each round empties the cache and warms the root again, so only the
	// leaf is cold when the measured Get runs.
	const rounds = 4
	var total uint64
	for i := 0; i < rounds; i++ {
		if err := s.DropCleanCaches(); err != nil {
			t.Fatal(err)
		}
		tr.unpin(tr.mustFetch(tr.rootID, nil))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, ok, err := tr.Get(key); err != nil || !ok {
			t.Fatalf("Get: ok=%v err=%v", ok, err)
		}
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	perGet := int64(total) / rounds
	t.Logf("a cold Get on a %d-byte leaf allocated %d bytes", ext.len, perGet)
	if perGet > ext.len/4 {
		t.Fatalf("a cold Get on a %d-byte leaf allocated %d bytes, want under a quarter of the extent", ext.len, perGet)
	}
}

// TestConcurrentEvictionUnderWrites runs cold point queries and scans
// from several goroutines through shards far smaller than the tree while
// a writer grows it, so eviction sweeps in both passes read every tree's
// rootID while flushes and splits restructure the tree, and full-image
// reads share imagePool. Meant for -race.
func TestConcurrentEvictionUnderWrites(t *testing.T) {
	_, s := concurrentStore(t, 3)
	tr := s.Data()
	const preload = 20000
	for i := 0; i < preload; i++ {
		tr.Put(k(i), v(i, 128), LogAuto)
	}
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	for _, sh := range s.cache.shards {
		sh.budget = 16 << 10
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := preload; i < preload+5000; i++ {
			if err := tr.Put(k(i), v(i, 128), LogAuto); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				i := (j*7919 + r*131) % preload
				got, ok, err := tr.Get(k(i))
				if err != nil || !ok || !bytes.Equal(got, v(i, 128)) {
					t.Errorf("Get %d: ok=%v err=%v", i, ok, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 20; j++ {
			lo := j * 97 % (preload - 100)
			n := 0
			err := tr.Scan(k(lo), k(lo+100), func(_, _ []byte) bool { n++; return true })
			if err != nil || n != 100 {
				t.Errorf("Scan from %d: %d keys, err=%v", lo, n, err)
				return
			}
		}
	}()
	wg.Wait()
	if s.cache.mEvict.Load() == 0 {
		t.Fatal("no evictions: the cache held the whole tree")
	}
}
