package betree

import (
	"bytes"
	"fmt"
	"testing"

	"betrfs/internal/keys"
	"betrfs/internal/sim"
)

// checkInvariants walks the whole tree verifying structural invariants:
//
//  1. pivots are strictly increasing within a node;
//  2. every child's keys (pivots, buffered messages, leaf entries) lie
//     within the key range its parent's pivots assign to it;
//  3. leaf entries are strictly sorted;
//  4. each child buffer's index is in order: point messages by (key,
//     MSN), range deletes by MSN, and its byte count matches;
//  5. interior node heights decrease by one per level;
//  6. the node cache's accounting is exact (checkCacheCharges), before
//     the walk and after it.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	checkCacheCharges(t, tr.store.cache)
	defer checkCacheCharges(t, tr.store.cache)
	var walk func(id nodeID, lo, hi []byte, wantHeight int)
	walk = func(id nodeID, lo, hi []byte, wantHeight int) {
		n := tr.mustFetch(id, nil)
		defer tr.unpin(n)
		if wantHeight >= 0 && n.height != wantHeight {
			t.Fatalf("node %d height %d, want %d", id, n.height, wantHeight)
		}
		inRange := func(k []byte, what string) {
			if lo != nil && keys.Compare(k, lo) < 0 {
				t.Fatalf("node %d: %s %q below lower bound %q", id, what, k, lo)
			}
			if hi != nil && keys.Compare(k, hi) >= 0 {
				t.Fatalf("node %d: %s %q at/above upper bound %q", id, what, k, hi)
			}
		}
		if n.isLeaf() {
			var prev []byte
			for bi, b := range n.basements {
				if !b.loaded {
					tr.ensureBasement(n, bi)
				}
				for i := range b.entries {
					k := b.entries[i].key
					inRange(k, "leaf key")
					if prev != nil && bytes.Compare(prev, k) >= 0 {
						t.Fatalf("node %d: leaf keys out of order (%q >= %q)", id, prev, k)
					}
					prev = k
				}
			}
			return
		}
		for i := 1; i < len(n.pivots); i++ {
			if keys.Compare(n.pivots[i-1], n.pivots[i]) >= 0 {
				t.Fatalf("node %d: pivots out of order", id)
			}
		}
		for i, p := range n.pivots {
			inRange(p, fmt.Sprintf("pivot %d", i))
		}
		for ci := range n.children {
			clo, chi := n.childRange(ci, lo, hi)
			checkBufferIndex(t, &n.bufs[ci])
			for _, m := range n.bufs[ci].points {
				if clo != nil && keys.Compare(m.Key, clo) < 0 ||
					chi != nil && keys.Compare(m.Key, chi) >= 0 {
					t.Fatalf("node %d child %d: message key %q outside child range", id, ci, m.Key)
				}
			}
			walk(n.children[ci], clo, chi, n.height-1)
		}
	}
	root := tr.mustFetch(tr.rootID, nil)
	h := root.height
	tr.unpin(root)
	walk(tr.rootID, nil, nil, h)
}

// checkCacheCharges verifies the node cache's byte accounting: each
// shard's used is the sum of what its entries were charged, and each
// charge is its node's current size, so no node changed size behind the
// cache's back.
func checkCacheCharges(t *testing.T, c *nodeCache) {
	t.Helper()
	for i, sh := range c.shards {
		sh.mu.Lock()
		var sum int64
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			ce := el.Value.(*cacheEntry)
			sum += ce.charged
			if size := int64(ce.node.memSize()); ce.charged != size {
				t.Errorf("shard %d: node %d charged %d bytes, its size is %d", i, ce.node.id, ce.charged, size)
			}
		}
		used := sh.used
		sh.mu.Unlock()
		if used != sum {
			t.Fatalf("shard %d: used %d bytes, its entries were charged %d", i, used, sum)
		}
	}
}

// TestRootSplitUnderCachePressure writes sequential keys through a cache
// far smaller than the tree's interior nodes, so root splits happen while
// no unpinned leaf can bring the shard under budget. A new root the cache
// evicted before it was pinned would be written back with one child, and
// every key right of its pivot would be lost.
func TestRootSplitUnderCachePressure(t *testing.T) {
	_, s := testStore(t, func(c *Config) { c.CacheBytes = 16 << 10 })
	tr := s.Data()
	const n = 20000
	for i := 0; i < n; i++ {
		if err := tr.Put(k(i), v(i, 200), LogAuto); err != nil {
			t.Fatal(err)
		}
	}
	lost := 0
	for i := 0; i < n; i++ {
		got, ok, err := tr.Get(k(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.Equal(got, v(i, 200)) {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d keys lost", lost, n)
	}
	checkInvariants(t, tr)
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	_, s := testStore(t, func(c *Config) {
		c.NodeSize = 16 << 10
		c.BasementSize = 2 << 10
		c.Fanout = 4
		c.CacheBytes = 512 << 10
	})
	tr := s.Meta()
	rnd := sim.NewRand(13)
	for i := 0; i < 8000; i++ {
		switch rnd.Intn(8) {
		case 0:
			tr.Delete(k(rnd.Intn(4000)), LogAuto)
		case 1:
			a := rnd.Intn(4000)
			tr.DeleteRange(k(a), k(a+rnd.Intn(50)), LogAuto)
		case 2:
			tr.Get(k(rnd.Intn(4000)))
		default:
			tr.Put(k(rnd.Intn(4000)), v(i, 16+rnd.Intn(200)), LogAuto)
		}
		if i%2000 == 1999 {
			checkInvariants(t, tr)
		}
	}
	s.Checkpoint()
	checkInvariants(t, tr)
}

func TestInvariantsAfterReopen(t *testing.T) {
	env, s := testStore(t, func(c *Config) {
		c.NodeSize = 16 << 10
		c.Fanout = 4
	})
	for i := 0; i < 4000; i++ {
		s.Data().Put(k(i), v(i, 128), LogAuto)
	}
	s.Checkpoint()
	_ = env
	checkInvariants(t, s.Data())
}

func TestPrefetchHitsOnSequentialGets(t *testing.T) {
	_, s := testStore(t, func(c *Config) {
		c.NodeSize = 64 << 10
		c.CacheBytes = 32 << 20
	})
	tr := s.Data()
	const n = 3000
	for i := 0; i < n; i++ {
		tr.Put(k(i), v(i, 256), LogAuto)
	}
	s.DropCleanCaches()
	tr.SetSeqHint(true)
	for i := 0; i < n; i++ {
		if _, ok, _ := tr.Get(k(i)); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
	if s.Stats().Prefetches == 0 {
		t.Fatal("sequential gets never prefetched")
	}
	if s.Stats().PrefetchHits == 0 {
		t.Fatal("prefetches never hit")
	}
}

func TestPartialReadsOnPointQueries(t *testing.T) {
	_, s := testStore(t, func(c *Config) {
		c.NodeSize = 128 << 10
		c.BasementSize = 4 << 10
		c.CacheBytes = 64 << 20
	})
	tr := s.Data()
	for i := 0; i < 4000; i++ {
		tr.Put(k(i), v(i, 128), LogAuto)
	}
	s.DropCleanCaches()
	tr.SetSeqHint(false)
	before := s.Stats().PartialReads
	tr.Get(k(1234))
	if s.Stats().PartialReads == before {
		t.Fatal("cold point query did not use a basement-granular read")
	}
}
