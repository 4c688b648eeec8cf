package betree

import (
	"bytes"
	"testing"

	"betrfs/internal/metrics/metricstest"
)

// coldHalfLoadedLeaf returns the cached leaf that has some but not all of
// its basements resident, or nil.
func coldHalfLoadedLeaf(s *Store, t *Tree) *node {
	for _, sh := range s.cache.shards {
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			ce := el.Value.(*cacheEntry)
			if ce.key.tree != t || !ce.node.isLeaf() {
				continue
			}
			loaded := 0
			for _, b := range ce.node.basements {
				if b.loaded {
					loaded++
				}
			}
			if loaded > 0 && loaded < len(ce.node.basements) {
				return ce.node
			}
		}
	}
	return nil
}

// writeBackHalfLoadedLeaf builds the state PR 12's rand_io walked into: a
// cold point read caches a leaf with one basement resident, then a flush
// lands in a second basement of that leaf and dirties it while a third
// basement has never been read. It returns the store, the dirty leaf and
// the key the flush carried.
func writeBackHalfLoadedLeaf(t *testing.T, mutate func(*Config)) (*Store, *node, []byte) {
	t.Helper()
	const n = 1200
	_, s := testStore(t, mutate)
	tr := s.Meta()
	for i := 0; i < n; i++ {
		if err := tr.Put(k(i), v(i, 100), LogAuto); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	root := tr.mustFetch(tr.rootID)
	height := root.height
	tr.unpin(root)
	if height != 1 {
		t.Fatalf("root height %d, want 1: flushes must reach a leaf directly", height)
	}

	// Cold point read: the leaf enters the cache with one basement.
	if _, ok, err := tr.Get(k(0)); err != nil || !ok {
		t.Fatalf("cold Get: %v, found=%v", err, ok)
	}
	leaf := coldHalfLoadedLeaf(s, tr)
	if leaf == nil || len(leaf.basements) < 3 {
		t.Fatal("cold Get did not leave a half-loaded leaf with three or more basements")
	}
	// Aim at the first key of the leaf's second basement; its last basement
	// is then touched by neither the read nor the flush.
	target := append([]byte{}, leaf.basements[1].lowKey()...)
	last := leaf.basements[len(leaf.basements)-1]
	if leaf.basements[1].loaded || last.loaded {
		t.Fatal("the point read loaded more than its own basement")
	}
	for i := 0; !leaf.dirty.Load(); i++ {
		if i > 5000 {
			t.Fatal("no flush reached the leaf after 5000 puts")
		}
		if err := tr.Put(target, v(i, 100), LogAuto); err != nil {
			t.Fatal(err)
		}
	}
	if !leaf.basements[1].loaded || last.loaded {
		t.Fatalf("flush did not leave the leaf half-loaded (hit=%v, untouched=%v)",
			leaf.basements[1].loaded, last.loaded)
	}
	return s, leaf, target
}

// TestCheckpointWritesHalfLoadedLeaf: the checkpoint after such a flush
// must load the leaf's missing basements and write it, where it used to
// panic in serializeNode, and every key of the leaf must survive.
func TestCheckpointWritesHalfLoadedLeaf(t *testing.T) {
	s, _, target := writeBackHalfLoadedLeaf(t, nil)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint of a half-loaded dirty leaf: %v", err)
	}
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	tr := s.Meta()
	for i := 0; i < 1200; i++ {
		got, ok, err := tr.Get(k(i))
		if err != nil || !ok {
			t.Fatalf("key %d after checkpoint: err=%v found=%v", i, err, ok)
		}
		if !bytes.Equal(k(i), target) && !bytes.Equal(got, v(i, 100)) {
			t.Fatalf("key %d changed across the checkpoint", i)
		}
	}
}

// TestEvictionWritesHalfLoadedLeaf is the same state met by a dirty
// eviction: inline write-back runs under the cache shard's lock, and
// loading the missing basements resizes the entry in that shard.
func TestEvictionWritesHalfLoadedLeaf(t *testing.T) {
	s, leaf, _ := writeBackHalfLoadedLeaf(t, nil)
	sh := s.cache.shardFor(s.Meta(), leaf.id)
	sh.mu.Lock()
	_, err := s.cache.evictShard(sh, 0)
	sh.mu.Unlock()
	if err != nil {
		t.Fatalf("evicting a half-loaded dirty leaf: %v", err)
	}
	if _, ok := s.cache.lookup(s.Meta(), leaf.id, false); ok {
		t.Fatal("dirty leaf still cached after a full eviction sweep")
	}
	if sh.used < 0 {
		t.Fatalf("shard accounting went negative: %d", sh.used)
	}
	for i := 0; i < 1200; i += 7 {
		if _, ok, err := s.Meta().Get(k(i)); err != nil || !ok {
			t.Fatalf("key %d after eviction: err=%v found=%v", i, err, ok)
		}
	}
}

// halfLoadedInterior returns interiorStore's store after a cold point Get
// through the height-1 node that buffers the most messages: the node is
// cached with the one partition on the Get's path resident and a buffering
// partition still on disk. It returns the cached node, the resident
// partition and the missing one, and the value oracle.
func halfLoadedInterior(t *testing.T) (s *Store, x *node, hit, missing int, want func(int) []byte) {
	t.Helper()
	_, _, s, want = interiorStore(t)
	whole, _, _ := bufferedInterior(t, s)
	hit, missing = -1, -1
	for ci := range whole.bufs {
		if whole.bufs[ci].len() == 0 {
			continue
		}
		if hit < 0 {
			hit = ci
		} else if missing < 0 {
			missing = ci
		}
	}
	if missing < 0 {
		t.Fatal("the height-1 node buffers messages in fewer than two partitions")
	}
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	key := whole.bufs[hit].points[0].Key
	if _, ok, err := s.Data().Get(key); err != nil || !ok {
		t.Fatalf("cold Get: %v, found=%v", err, ok)
	}
	x, ok := s.cache.lookup(s.Data(), whole.id, false)
	if !ok || x.bufs[hit].missing || !x.bufs[missing].missing {
		t.Fatal("the cold Get did not leave the height-1 node half-loaded")
	}
	return s, x, hit, missing, want
}

// checkAllKeys drops the caches and reads every key of interiorStore back.
func checkAllKeys(t *testing.T, s *Store, want func(int) []byte) {
	t.Helper()
	if err := s.DropCleanCaches(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < interiorKeys; i++ {
		got, ok, err := s.Data().Get(k(i))
		if err != nil || !ok || !bytes.Equal(got, want(i)) {
			t.Fatalf("key %d: err=%v found=%v", i, err, ok)
		}
	}
}

// TestWriteBackHalfLoadedInterior: a dirty interior node cached with
// partitions still on disk is written back by a checkpoint, and by a dirty
// eviction, only after those partitions are loaded, and every key
// survives.
func TestWriteBackHalfLoadedInterior(t *testing.T) {
	for _, evict := range []bool{false, true} {
		s, x, _, missing, want := halfLoadedInterior(t)
		tr := s.Data()
		tr.markDirty(x)
		if evict {
			sh := s.cache.shardFor(tr, x.id)
			sh.mu.Lock()
			_, err := s.cache.evictShard(sh, 0)
			sh.mu.Unlock()
			if err != nil {
				t.Fatalf("evicting a half-loaded dirty interior node: %v", err)
			}
		} else if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint of a half-loaded dirty interior node: %v", err)
		}
		if x.bufs[missing].missing || x.dirty.Load() {
			t.Fatalf("evict=%v: written back without loading its missing partition", evict)
		}
		checkAllKeys(t, s, want)
	}
}

// TestFlushIntoHalfLoadedInterior: a root flush into a half-loaded interior
// node loads its missing partitions before merging into it, and every key,
// including the ones overwritten through the flush, reads back.
func TestFlushIntoHalfLoadedInterior(t *testing.T) {
	s, x, _, missing, want := halfLoadedInterior(t)
	tr := s.Data()
	target := -1
	for i := 0; i < interiorKeys && target < 0; i++ {
		if x.childFor(s.env, k(i)) == missing {
			target = i
		}
	}
	for n := 0; !x.dirty.Load(); n++ {
		if n > 5000 {
			t.Fatal("no flush reached the interior node after 5000 puts")
		}
		if err := tr.Put(k(target), v(target+n, 128), LogAuto); err != nil {
			t.Fatal(err)
		}
		last := target + n
		old := want
		want = func(i int) []byte {
			if i == target {
				return v(last, 128)
			}
			return old(i)
		}
	}
	for ci := range x.bufs {
		if x.bufs[ci].missing {
			t.Fatalf("partition %d still missing after a flush into the node", ci)
		}
	}
	checkAllKeys(t, s, want)
}

// TestSplitHalfLoadedInterior: splitting a half-loaded interior node loads
// its missing partitions first, so both halves carry their buffers.
func TestSplitHalfLoadedInterior(t *testing.T) {
	s, x, _, _, want := halfLoadedInterior(t)
	tr := s.Data()
	s.lockExcl()
	root := tr.mustFetch(tr.rootID)
	child := tr.mustFetch(x.id)
	ci := 0
	for root.children[ci] != x.id {
		ci++
	}
	tr.splitChild(root, ci, child)
	tr.unpin(child)
	tr.unpin(root)
	s.unlockExcl()
	if len(root.children) < 2 || root.children[ci+1] == x.id {
		t.Fatal("the interior node did not split")
	}
	checkAllKeys(t, s, want)
}

// TestBytesWrittenClean: a checkpoint that writes back a leaf after a
// flush into one of its basements counts the basements nothing changed in
// betree.bytes.written.clean, and writing the same leaf back again with no
// change counts every basement.
func TestBytesWrittenClean(t *testing.T) {
	s, leaf, _ := writeBackHalfLoadedLeaf(t, nil)
	last := leaf.basements[len(leaf.basements)-1]
	clean := func() int64 { return metricstest.Counter(t, s.env.Metrics, "betree.bytes.written.clean") }
	written := func() int64 { return metricstest.Counter(t, s.env.Metrics, "betree.bytes.written") }
	c0, w0 := clean(), written()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c1, w1 := clean(), written()
	if c1-c0 < int64(last.diskLen+last.pageLen) || c1-c0 >= w1-w0 {
		t.Fatalf("write-back counted %d clean of %d bytes; its untouched last basement has %d",
			c1-c0, w1-w0, last.diskLen+last.pageLen)
	}
	s.Meta().markDirty(leaf)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	all := int64(0)
	for _, b := range leaf.basements {
		all += int64(b.diskLen + b.pageLen)
	}
	if got := clean() - c1; got != all {
		t.Fatalf("unchanged write-back counted %d clean bytes, want all %d of its basements'", got, all)
	}
}
