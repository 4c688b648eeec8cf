package betree

import (
	"bytes"
	"testing"
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
	root := tr.mustFetch(tr.rootID, nil)
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
