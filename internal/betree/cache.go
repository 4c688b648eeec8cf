package betree

import (
	"container/list"
	"sync"

	"betrfs/internal/ioerr"
	"betrfs/internal/metrics"
)

// cacheKey identifies a node across the trees sharing one cache.
type cacheKey struct {
	tree *Tree
	id   nodeID
}

// nodeCache is the cachetable: decoded nodes shared by the metadata and
// data trees, bounded by a byte budget and evicted interior-last
// (evictShard).
//
// The cache is split into power-of-two lock-striped shards, each with its
// own mutex, LRU list, and slice of the byte budget, so concurrent readers
// on different nodes never contend on one lock (DESIGN.md §9). A
// deterministic single-goroutine store uses exactly one shard, so its
// eviction order — and therefore every golden benchmark number — does not
// depend on the shard hash.
//
// Dirty-node writeback on eviction has two policies:
//   - inline (deterministic mode): the evicting caller writes the node
//     back synchronously via writeNode;
//   - deferred (concurrent mode): dirty nodes are never evicted by
//     readers — they are skipped like pinned nodes and onDirtyPressure is
//     invoked so the store can schedule a background writeback on the
//     flusher pool. Readers therefore never touch the block table or the
//     write path, which keeps the lock protocol small.
type nodeCache struct {
	shards []*cacheShard
	mask   uint64

	// writeNode is provided by the Store (inline writeback).
	writeNode func(t *Tree, n *node)
	// deferDirty selects the deferred policy; onDirtyPressure (may be
	// nil) is called, outside the shard lock, after an eviction sweep
	// skipped at least one dirty node.
	deferDirty      bool
	onDirtyPressure func()

	// Registry counters, set by Store.Open right after construction.
	mHit, mMiss, mEvict, mEvictDirty, mDeferred *metrics.Counter
}

// cacheShard is one lock stripe: a fraction of the budget with its own LRU.
type cacheShard struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	lru     *list.List // front = most recently used
	entries map[cacheKey]*list.Element

	hits, misses, evictions, dirtyEvictions int64
}

type cacheEntry struct {
	key  cacheKey
	node *node
	// charged is what this entry adds to its shard's used: the node's
	// size when it was inserted or last resized. Resizes and evictions
	// refund exactly this, never the node's current size, which a
	// mutation changes before it resizes.
	charged int64
}

// recharge replaces the entry's charge with its node's current size. The
// shard lock is held.
func (sh *cacheShard) recharge(ce *cacheEntry) {
	sh.used -= ce.charged
	ce.charged = int64(ce.node.memSize())
	sh.used += ce.charged
}

// newNodeCache builds a cache with the given total budget split over
// shards lock stripes (rounded up to a power of two; values below two
// collapse to the deterministic single-shard layout).
func newNodeCache(budget int64, shards int, writeNode func(*Tree, *node)) *nodeCache {
	n := 1
	for n < shards {
		n <<= 1
	}
	zero := &metrics.Counter{}
	c := &nodeCache{
		shards:      make([]*cacheShard, n),
		mask:        uint64(n - 1),
		writeNode:   writeNode,
		mHit:        zero,
		mMiss:       zero,
		mEvict:      zero,
		mEvictDirty: zero,
		mDeferred:   zero,
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			budget:  budget / int64(n),
			lru:     list.New(),
			entries: make(map[cacheKey]*list.Element),
		}
	}
	return c
}

// shardFor routes a key to its stripe by hashing the node ID and a
// per-tree salt (trees sharing the cache must not collide per-ID).
func (c *nodeCache) shardFor(t *Tree, id nodeID) *cacheShard {
	h := (uint64(id)*0x9e3779b97f4a7c15 ^ t.cacheSalt) >> 16
	return c.shards[h&c.mask]
}

// lookup returns the cached node, counting the hit or miss and refreshing
// LRU position. With pin set the node is pinned under the shard lock, so
// no eviction can slip between lookup and pin (the historical get-then-pin
// race).
func (c *nodeCache) lookup(t *Tree, id nodeID, pin bool) (*node, bool) {
	sh := c.shardFor(t, id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[cacheKey{t, id}]
	if !ok {
		sh.misses++
		c.mMiss.Inc()
		return nil, false
	}
	sh.hits++
	c.mHit.Inc()
	sh.lru.MoveToFront(el)
	n := el.Value.(*cacheEntry).node
	if pin {
		n.pins.Add(1)
	}
	return n, true
}

// insert is the only way into the cache. It returns the cached node
// pinned, and the caller unpins it: a node is used only while pinned, so
// the eviction sweep this insert runs can never take the node it adds.
//
// If the entry already exists the cached node wins. When it is n itself
// (a structural change resized a node it holds pinned) its charge is
// brought up to date; when it is another node (a concurrent read miss
// cached it first) the caller's duplicate is released.
func (c *nodeCache) insert(t *Tree, n *node) *node {
	key := cacheKey{t, n.id}
	sh := c.shardFor(t, n.id)
	sh.mu.Lock()
	if el, ok := sh.entries[key]; ok {
		ce := el.Value.(*cacheEntry)
		ce.node.pins.Add(1)
		sh.lru.MoveToFront(el)
		if ce.node == n {
			sh.recharge(ce)
		}
		sh.mu.Unlock()
		if ce.node != n {
			n.releaseRefs()
		}
		return ce.node
	}
	n.pins.Add(1)
	ce := &cacheEntry{key: key, node: n}
	sh.entries[key] = sh.lru.PushFront(ce)
	sh.recharge(ce)
	pressure, evErr := c.evictShard(sh, sh.budget)
	sh.mu.Unlock()
	c.dirtyPressure(pressure)
	if evErr != nil {
		n.pins.Add(-1) // the caller never receives the node to unpin it
		ioerr.Check(evErr)
	}
	return n
}

// resize recharges a cached node's footprint after mutation.
func (c *nodeCache) resize(t *Tree, n *node) {
	sh := c.shardFor(t, n.id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.entries[cacheKey{t, n.id}]; ok {
		if ce := el.Value.(*cacheEntry); ce.node == n {
			sh.recharge(ce)
		}
	}
}

// evictShard evicts cold, unpinned nodes until used <= target, with the
// shard lock held. Returns whether a dirty node was skipped under the
// deferred policy (the caller reports pressure outside the lock), and the
// first write-back failure — which the caller must re-raise only after
// releasing the shard lock, or the mutex would stay held forever.
//
// Victims are taken from the LRU tail in two sweeps (DESIGN.md §9): first
// the leaves that are not their tree's root, then the rest. Like TokuDB's
// cachetable, this keeps the interior nodes every descent crosses while
// leaves read once cycle through the budget.
func (c *nodeCache) evictShard(sh *cacheShard, target int64) (dirtySkipped bool, failed error) {
	for _, leaves := range [2]bool{true, false} {
		el := sh.lru.Back()
		for el != nil && sh.used > target {
			prev := el.Prev()
			ce := el.Value.(*cacheEntry)
			if ce.node.pins.Load() > 0 || ce.evictsFirst() != leaves {
				el = prev
				continue
			}
			if ce.node.dirty.Load() {
				if c.deferDirty {
					// Readers never write back: leave the node cached (over
					// budget) and let the flusher clean it.
					c.mDeferred.Inc()
					dirtySkipped = true
					el = prev
					continue
				}
				// Inline write-back exists only in deterministic mode, where
				// this goroutine is the store's only one. The shard lock is
				// dropped across it: writing a leaf back first loads its
				// missing basements, which resizes this entry through resize.
				sh.mu.Unlock()
				werr := c.tryWriteNode(ce.key.tree, ce.node)
				sh.mu.Lock()
				if werr != nil {
					// Write-back failed (device error or node file full):
					// evicting would silently discard the dirty state, so the
					// node stays cached over budget and the error surfaces
					// once the sweep finishes.
					if failed == nil {
						failed = werr
					}
					el = prev
					continue
				}
				sh.dirtyEvictions++
				c.mEvictDirty.Inc()
			}
			sh.evictions++
			c.mEvict.Inc()
			sh.used -= ce.charged
			ce.node.releaseRefs()
			sh.lru.Remove(el)
			delete(sh.entries, ce.key)
			el = prev
		}
	}
	return dirtySkipped, failed
}

// evictsFirst reports whether the entry goes in the first eviction sweep:
// a leaf that is not its tree's root. A node's height never changes. Its
// tree's rootID is read under the shard lock, but what makes the read safe
// is the store's structure lock (Store.treeMu): rootID changes only under
// it exclusively, and every eviction sweep runs inside a cache insert,
// which callers make only while holding it shared or exclusively.
func (ce *cacheEntry) evictsFirst() bool {
	return ce.node.isLeaf() && ce.node.id != ce.key.tree.rootID
}

// tryWriteNode runs the inline write-back callback, converting an abort
// (device failure, node file full) into an error so the eviction sweep
// can keep the node and release its shard lock before re-raising.
func (c *nodeCache) tryWriteNode(t *Tree, n *node) (err error) {
	defer ioerr.Guard(&err)
	c.writeNode(t, n)
	return nil
}

func (c *nodeCache) dirtyPressure(pressure bool) {
	if pressure && c.onDirtyPressure != nil {
		c.onDirtyPressure()
	}
}

// dirtyNodes returns all dirty cached nodes of tree t (checkpoint sweep),
// shard by shard in LRU order.
func (c *nodeCache) dirtyNodes(t *Tree) []*node {
	var out []*node
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			ce := el.Value.(*cacheEntry)
			if ce.key.tree == t && ce.node.dirty.Load() {
				out = append(out, ce.node)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// dropAll empties the cache without writeback (crash simulation).
func (c *nodeCache) dropAll() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			el.Value.(*cacheEntry).node.releaseRefs()
		}
		sh.lru.Init()
		sh.entries = make(map[cacheKey]*list.Element)
		sh.used = 0
		sh.mu.Unlock()
	}
}
