package betree

import (
	"fmt"
	"sort"
	"sync/atomic"

	"betrfs/internal/ioerr"
	"betrfs/internal/keys"
	"betrfs/internal/stor"
)

// TreeStats aggregates per-tree counters. Fields are updated with atomic
// adds; read them only after the operations of interest have quiesced.
type TreeStats struct {
	Inserts      int64
	Deletes      int64
	RangeDeletes int64
	Updates      int64
	Gets         int64
	Scans        int64
}

// Tree is one Bε-tree index (metadata or data) within a Store.
//
// rootID, nextNodeID, and bt (the block table) are structural state:
// they change only under the store's exclusive structure lock (or in
// deterministic single-goroutine mode, where no locks are taken at all —
// see DESIGN.md §9).
type Tree struct {
	store *Store
	name  string
	f     stor.File
	bt    *blockTable

	rootID     nodeID
	nextNodeID nodeID

	// cacheSalt separates this tree's node IDs from its sibling's in the
	// shared sharded cache hash (cache.go).
	cacheSalt uint64
	// flushQueued dedups background root-flush tasks (concurrent mode).
	flushQueued atomic.Bool

	stats TreeStats

	// seqHint tracks the last point-queried key for the cooperative
	// read-ahead hint (§3.2): the northbound detects sequential file
	// reads and tells the tree, which prefetches upcoming basements.
	// Atomic: clients set it while readers check it.
	seqHint atomic.Bool

	// trimq holds freed extents aging toward TRIM eligibility (see
	// discardFreed); ordered by nondecreasing safeGen.
	trimq []trimCand
}

func newTree(s *Store, name string, f stor.File) *Tree {
	salt := uint64(0xcbf29ce484222325)
	for _, c := range name {
		salt = salt*0x100000001b3 ^ uint64(c)
	}
	return &Tree{
		store:     s,
		name:      name,
		f:         f,
		bt:        newBlockTable(f.Capacity()),
		cacheSalt: salt,
	}
}

// Name returns the index name ("meta" or "data").
func (t *Tree) Name() string { return t.name }

// trimCand is a freed extent queued for TRIM once enough superblock
// generations have passed that no durable tree can reference it.
type trimCand struct {
	e       extent
	safeGen uint64
}

// discardFreed queues a freed extent for TRIM. Wired as bt.onFree, so it
// fires at the single point betree space dies: a release into the free
// list. The extent is NOT trimmed immediately: the store keeps two
// superblock generations and Open falls back to the older one when the
// newer slot is corrupt, so an extent freed while generation G is current
// may still be referenced by the on-disk generation G-1 tree. Trimming is
// deferred until two more generations are durable (safeGen = G+2), at
// which point neither reachable superblock slot references the space.
func (t *Tree) discardFreed(e extent) {
	t.trimq = append(t.trimq, trimCand{e: e, safeGen: t.store.generation + 2})
}

// flushTrimQueue trims every queued extent whose safe generation has been
// reached. Called from the checkpoint after the new superblock is
// durable; gen is the just-committed generation. The guard is structural
// — only space the free list fully contains may be discarded, so an
// extent reallocated while it aged in the queue (or a caller handing in a
// still-mapped extent) is rejected and counted instead of zeroing live
// data (DESIGN.md §12). Discard failures are advisory: the space is
// simply not handed back until it is overwritten.
func (t *Tree) flushTrimQueue(gen uint64) {
	s := t.store
	i := 0
	for ; i < len(t.trimq) && t.trimq[i].safeGen <= gen; i++ {
		e := t.trimq[i].e
		if !t.bt.freeContains(e) {
			s.m.discardRejected.Inc()
			continue
		}
		if err := t.f.Discard(e.off, e.len); err != nil {
			continue
		}
		s.m.discardCount.Inc()
		s.m.discardBytes.Add(e.len)
	}
	t.trimq = t.trimq[i:]
}

// Stats returns per-tree counters.
func (t *Tree) Stats() *TreeStats { return &t.stats }

// SetSeqHint informs the tree that point queries are following a
// sequential pattern, enabling basement/leaf read-ahead.
func (t *Tree) SetSeqHint(on bool) { t.seqHint.Store(on) }

// formatEmpty initializes the tree with a single empty root leaf.
func (t *Tree) formatEmpty() {
	t.nextNodeID = 1
	root := &node{
		id:        t.newNodeID(),
		height:    0,
		basements: []*basement{{loaded: true}},
	}
	root.dirty.Store(true)
	t.rootID = root.id
	t.store.cache.put(t, root)
}

func (t *Tree) newNodeID() nodeID {
	id := t.nextNodeID
	t.nextNodeID++
	return id
}

// fetch returns the node, loading it from disk on a miss, and pins it.
// partialKey (for leaves) enables basement-granular reads. A corrupted
// on-disk image surfaces an error wrapping ErrChecksum; read paths
// propagate it, write paths use mustFetch (an unreadable node under a
// mutation leaves no consistent state to continue from).
func (t *Tree) fetch(id nodeID, partialKey []byte) (*node, error) {
	s := t.store
	s.env.Charge(s.env.Costs.PageCacheOp) // cachetable lookup
	if n, ok := s.cache.lookup(t, id, true); ok {
		return n, nil
	}
	var n *node
	var err error
	if partialKey != nil && !t.seqHint.Load() {
		n, err = s.readNode(t, id, partialKey)
	} else {
		n, err = s.readNode(t, id, nil)
	}
	if err != nil {
		return nil, err
	}
	n.pins.Add(1)
	return s.cache.insertPinned(t, n), nil
}

// mustFetch is fetch for write paths, where an unreadable node aborts the
// whole operation: the error is raised to the public-API guard, so the
// mutation surfaces it instead of crashing the process.
func (t *Tree) mustFetch(id nodeID, partialKey []byte) *node {
	n, err := t.fetch(id, partialKey)
	ioerr.Check(err)
	return n
}

func (t *Tree) unpin(n *node) {
	if n.pins.Add(-1) < 0 {
		panic("betree: unpin of unpinned node")
	}
}

// markDirty flags a node dirty and refreshes cache accounting.
func (t *Tree) markDirty(n *node) {
	n.dirty.Store(true)
	t.store.cache.resize(t, n)
}

// ensureBasement makes basement bi of leaf n resident. Corruption in the
// basement's on-disk image surfaces as an error wrapping ErrChecksum.
func (t *Tree) ensureBasement(n *node, bi int) error {
	b := n.basements[bi]
	if b.loaded {
		return nil
	}
	ext, ok := t.bt.lookup(n.id)
	if !ok {
		return fmt.Errorf("betree: leaf %d with unloaded basement has no extent", n.id)
	}
	return t.store.loadBasement(t, n, ext, bi)
}

// mustEnsureBasement is ensureBasement for write paths; failures abort to
// the public-API guard like mustFetch.
func (t *Tree) mustEnsureBasement(n *node, bi int) {
	ioerr.Check(t.ensureBasement(n, bi))
}

// ensureAllBasements loads every basement (required before structural
// changes or serialization; write path, so corruption is fatal).
func (t *Tree) ensureAllBasements(n *node) {
	for bi := range n.basements {
		t.mustEnsureBasement(n, bi)
	}
}

// --- public operations ------------------------------------------------------

// Durability selects how an operation's payload reaches the redo log.
type Durability int

const (
	// LogAuto logs the payload if it is small (metadata, tiny updates);
	// bulk values are logged key-only and persist via checkpoint.
	LogAuto Durability = iota
	// LogPayload forces payload logging (fsync-driven write-back).
	LogPayload
	// LogNone skips logging (replay and internal restructuring).
	LogNone
)

// Put inserts or replaces key with an inline value. Like every mutator it
// returns an error when the device fails mid-operation (wrapping ErrIO,
// ErrNoSpace, or ErrChecksum); the logged record, if any, keeps the
// operation durable for replay even when the in-memory insert aborted.
func (t *Tree) Put(key, val []byte, d Durability) (err error) {
	defer ioerr.Guard(&err)
	atomic.AddInt64(&t.stats.Inserts, 1)
	m := &Msg{Type: MsgInsert, Key: key, Val: InlineValue(val)}
	t.logAndInsert(m, d)
	return nil
}

// PutRef inserts key with an externally owned page (insertByRef, §6).
// Without page sharing configured the value is copied inline immediately,
// reproducing the v0.4 copy-on-ingest behaviour.
func (t *Tree) PutRef(key []byte, ref PageRef, d Durability) (err error) {
	defer ioerr.Guard(&err)
	atomic.AddInt64(&t.stats.Inserts, 1)
	var v Value
	if t.store.cfg.PageSharing {
		v = RefValue(ref)
	} else {
		data := append([]byte{}, ref.Data()...)
		t.store.env.Memcpy(len(data))
		ref.Release()
		v = InlineValue(data)
	}
	m := &Msg{Type: MsgInsert, Key: key, Val: v}
	t.logAndInsert(m, d)
	return nil
}

// Update applies a blind sub-value write: data is patched at byte offset
// off of key's value, without reading it first (§2.1).
func (t *Tree) Update(key []byte, off int, data []byte, d Durability) (err error) {
	defer ioerr.Guard(&err)
	atomic.AddInt64(&t.stats.Updates, 1)
	m := &Msg{Type: MsgUpdate, Key: key, Off: off, Val: InlineValue(data)}
	t.logAndInsert(m, d)
	return nil
}

// Delete removes key.
func (t *Tree) Delete(key []byte, d Durability) (err error) {
	defer ioerr.Guard(&err)
	atomic.AddInt64(&t.stats.Deletes, 1)
	m := &Msg{Type: MsgDelete, Key: key}
	t.logAndInsert(m, d)
	return nil
}

// DeleteRange removes every key in [lo, hi) with a single range-delete
// message (§2.1, §4).
func (t *Tree) DeleteRange(lo, hi []byte, d Durability) (err error) {
	defer ioerr.Guard(&err)
	atomic.AddInt64(&t.stats.RangeDeletes, 1)
	m := &Msg{Type: MsgRangeDelete, Key: lo, EndKey: hi}
	t.logAndInsert(m, d)
	return nil
}

// logAndInsert is the single mutating entry point: it assigns the MSN and
// routes the message into the tree, under the store's writer lock in
// concurrent mode so that WAL record order, MSN order, and tree insertion
// order all agree (otherwise a later-MSN message could reach a leaf first
// and its maxApplied watermark would silently swallow the earlier one).
func (t *Tree) logAndInsert(m *Msg, d Durability) {
	s := t.store
	if s.concurrent {
		s.writerMu.Lock()
		defer s.writerMu.Unlock()
	}
	if d != LogNone {
		withPayload := true
		if m.Type == MsgInsert || m.Type == MsgUpdate {
			if d == LogAuto && m.Val.Len() > s.cfg.LogPayloadMax {
				withPayload = false
			}
		}
		s.logOp(t, m, withPayload)
	}
	m.MSN = s.nextMsn()
	t.insertMsg(m)
}

// insertMsg routes a message into the root, flushing and splitting as
// needed. The deterministic path below is the historical inline code;
// concurrent mode forks to the latched fast path in concurrent.go.
func (t *Tree) insertMsg(m *Msg) {
	s := t.store
	s.m.msgInject.Inc()
	s.env.Trace("betree", "msg.inject", string(m.Key), int64(m.MSN))
	s.env.Charge(s.env.Costs.MessageOverhead)
	if s.concurrent {
		t.insertMsgConcurrent(m)
		return
	}
	root := t.mustFetch(t.rootID, nil)
	defer t.unpin(root)
	if root.isLeaf() {
		t.applyToLeaf(root, m)
		t.markDirty(root)
		if root.leafBytes() > s.cfg.NodeSize {
			t.splitRoot(root)
		}
		return
	}
	ci := root.childFor(s.env, m.Key)
	root.bufs[ci].add(s.env, s.alloc, m)
	if m.Type == MsgRangeDelete {
		t.routeRangeMsg(root, m, ci)
	}
	t.markDirty(root)
	if root.bufferBytes() > s.cfg.NodeSize {
		t.flushDescend(root)
		if len(root.children) > s.cfg.Fanout {
			t.splitRoot(root)
		}
	}
}

// routeRangeMsg duplicates a range-delete into every additional child
// buffer whose range it overlaps (the message was already added to ci).
func (t *Tree) routeRangeMsg(n *node, m *Msg, ci int) {
	for i := ci + 1; i < len(n.children); i++ {
		lo, _ := n.childRange(i, nil, nil)
		if lo != nil && keys.Compare(m.EndKey, lo) <= 0 {
			break
		}
		n.bufs[i].insert(m)
	}
}

// flushDescend relieves pressure on n by flushing its fullest child
// buffers downward until n is under the threshold (§2.1 write
// optimization).
func (t *Tree) flushDescend(n *node) {
	s := t.store
	t.pacman(n)
	for n.bufferBytes() > s.cfg.NodeSize/2 {
		ci := 0
		for i := 1; i < len(n.bufs); i++ {
			if n.bufs[i].bytes > n.bufs[ci].bytes {
				ci = i
			}
		}
		if n.bufs[ci].len() == 0 {
			return
		}
		t.flushToChild(n, ci)
	}
}

// flushToChild moves the entire buffer for child ci down one level.
func (t *Tree) flushToChild(parent *node, ci int) {
	s := t.store
	atomic.AddInt64(&s.stats.Flushes, 1)
	s.m.flushRun.Inc()
	child := t.mustFetch(parent.children[ci], nil)
	defer t.unpin(child)
	msgs := parent.bufs[ci].takeAll(s.alloc)
	s.m.msgFlush.Add(int64(len(msgs)))
	t.markDirty(parent)
	t.markDirty(child)

	// An ioerr.Abort can unwind mid-flush (a basement read or an eviction
	// writeback hitting a device fault). The taken messages are then in
	// neither the parent buffer nor the child, so without repair they
	// would silently vanish from the in-memory tree while the mount stays
	// readable. Re-apply the unconsumed tail to the parent buffer as the
	// panic passes through: a message partially applied to a leaf is safe
	// to re-flush later because each basement's maxApplied MSN watermark
	// drops the second application.
	pending := msgs
	defer func() {
		if len(pending) != 0 {
			s.m.flushRestore.Add(int64(len(pending)))
			parent.bufs[ci].restore(pending)
		}
	}()

	if child.isLeaf() {
		// The batch is in index order; a leaf applies it in MSN order
		// (the basement maxApplied guard drops late messages otherwise),
		// so the restored tail is always the newest messages.
		sort.Slice(msgs, func(i, j int) bool { return msgs[i].MSN < msgs[j].MSN })
		for i, m := range msgs {
			t.applyToLeaf(child, m)
			pending = msgs[i+1:]
		}
		// Fully applied: resize/split aborts below must not re-queue.
		pending = nil
		s.cache.resize(t, child)
		if child.leafBytes() > s.cfg.NodeSize {
			t.splitChild(parent, ci, child)
		}
		return
	}
	// Without page sharing, the complete message is memcpy-ed into the
	// child's buffer at every level (§2.3, §6).
	copyDown := func(m *Msg) {
		if !s.cfg.PageSharing {
			s.env.Memcpy(m.memBytes())
		} else {
			s.env.Memcpy(len(m.Key) + 48) // header + key only; value by ref
		}
	}
	// The batch leaves the parent in index order, point messages first:
	// one merge against the child's pivots cuts them into per-child runs,
	// and each run merges into its child's index.
	np := 0
	for np < len(msgs) && msgs[np].Type != MsgRangeDelete {
		np++
	}
	start := 0
	for cci, end := range child.cutRuns(s.env, msgs[:np]) {
		if end > start {
			run := msgs[start:end]
			for _, m := range run {
				copyDown(m)
			}
			child.bufs[cci].merge(s.env, s.alloc, run)
			pending = msgs[end:]
		}
		start = end
	}
	for i := np; i < len(msgs); i++ {
		m := msgs[i]
		copyDown(m)
		cci := child.childFor(s.env, m.Key)
		child.bufs[cci].add(s.env, s.alloc, m)
		t.routeRangeMsg(child, m, cci)
		pending = msgs[i+1:]
	}
	pending = nil
	t.pacman(child)
	s.cache.resize(t, child)
	if child.bufferBytes() > s.cfg.NodeSize {
		t.flushDescend(child)
	}
	if len(child.children) > s.cfg.Fanout {
		t.splitChild(parent, ci, child)
	}
}

// applyToLeaf applies one message to leaf n, loading the affected
// basements (a write path: unreadable basements are fatal). Per-level
// value copies are charged unless page sharing is on.
func (t *Tree) applyToLeaf(n *node, m *Msg) {
	s := t.store
	withCopies := !s.cfg.PageSharing
	if m.Type == MsgRangeDelete {
		lo := n.basementFor(s.env, m.Key)
		hi := n.basementFor(s.env, m.EndKey)
		for bi := lo; bi <= hi && bi < len(n.basements); bi++ {
			t.mustEnsureBasement(n, bi)
			n.applyToBasement(s.env, bi, m, withCopies)
		}
		return
	}
	bi := n.basementFor(s.env, m.Key)
	t.mustEnsureBasement(n, bi)
	n.applyToBasement(s.env, bi, m, withCopies)
}

// --- PacMan -----------------------------------------------------------------

// pacman runs the range-message compaction pass over a node's buffers
// (§2.2, §4). Conceptually every range-delete is compared against every
// other message — the quadratic scan whose CPU cost the paper analyzes —
// and messages fully covered by a newer range-delete are consumed
// ("eaten"). The simulated cost charges that full quadratic comparison
// count; the host-side implementation finds the covered messages through
// the buffers' own key indexes so large nodes stay tractable to simulate.
// Without the v0.6 coalescing order this reproduces the v0.4 behaviour:
// the same quadratic charge, oldest-first traversal, and nothing to eat
// when range deletes are adjacent-but-not-overlapping.
func (t *Tree) pacman(n *node) {
	s := t.store
	atomic.AddInt64(&s.stats.PacmanScans, 1)
	s.m.pacmanScan.Inc()
	// A range delete counts once per buffer it was routed into, as it is
	// compared once per copy.
	var ranges []*Msg
	total, keyBytes := 0, 0
	for ci := range n.bufs {
		b := &n.bufs[ci]
		ranges = append(ranges, b.ranges...)
		total += b.len()
		for _, list := range [2][]*Msg{b.points, b.ranges} {
			for _, m := range list {
				keyBytes += len(m.Key)
			}
		}
	}
	if len(ranges) == 0 {
		return
	}
	avgKey := keyBytes / total

	// Traversal order: v0.6 considers the most recent (broadest,
	// directory-level) deletes first so they gobble narrower ones; v0.4
	// considers them in discovery order.
	if s.cfg.CoalesceRangeDeletes {
		sort.Slice(ranges, func(a, b int) bool { return ranges[a].MSN > ranges[b].MSN })
	}
	eaten := make(map[*Msg]bool)
	scanned := make(map[*Msg]bool)
	for _, r := range ranges {
		if eaten[r] || scanned[r] {
			continue
		}
		scanned[r] = true
		// Everything r can eat sits in a buffer whose child range overlaps
		// [r.Key, r.EndKey): a point message in its key's child buffer, a
		// covered range delete in buffers overlapping its own, narrower span.
		for ci := sort.Search(len(n.pivots), func(i int) bool { return keys.Compare(n.pivots[i], r.Key) > 0 }); ci < len(n.bufs); ci++ {
			if ci > 0 && keys.Compare(n.pivots[ci-1], r.EndKey) >= 0 {
				break
			}
			b := &n.bufs[ci]
			// Point messages inside [r.Key, r.EndKey) older than r.
			for i := b.seek(r.Key); i < len(b.points) && keys.Compare(b.points[i].Key, r.EndKey) < 0; i++ {
				if m := b.points[i]; m.MSN < r.MSN {
					eaten[m] = true
				}
			}
			// Older range deletes fully covered by r.
			for _, m := range b.ranges {
				if m != r && m.MSN < r.MSN && keys.Compare(r.Key, m.Key) <= 0 &&
					keys.Compare(m.Key, r.EndKey) < 0 && keys.Compare(m.EndKey, r.EndKey) <= 0 {
					eaten[m] = true
				}
			}
		}
	}
	// The quadratic scan cost: every live range delete examines every
	// other message with two key comparisons. Eaten range deletes are
	// consumed before taking their own turn as eaters, which is exactly
	// why the directory-level deletes of §4 slash the CPU cost: with
	// newest-first traversal one broad delete swallows the narrow ones,
	// and none of them scan. Without coalescing (v0.4) nothing is eaten
	// and every range delete pays the full scan.
	eatenRanges := 0
	for _, r := range ranges {
		if eaten[r] {
			eatenRanges++
		}
	}
	s.env.CompareBulk(2*(len(ranges)-eatenRanges)*(total-1), avgKey)
	if len(eaten) == 0 {
		return
	}
	for ci := range n.bufs {
		dropped := n.bufs[ci].drop(func(m *Msg) bool { return eaten[m] })
		atomic.AddInt64(&s.stats.PacmanDrops, int64(dropped))
		s.m.pacmanDrop.Add(int64(dropped))
	}
	s.cache.resize(t, n)
}

// --- splits -----------------------------------------------------------------

// splitRoot replaces the root with a new interior node over the split
// halves of the old root.
func (t *Tree) splitRoot(old *node) {
	s := t.store
	newRoot := &node{
		id:       t.newNodeID(),
		height:   old.height + 1,
		children: []nodeID{old.id},
		bufs:     make([]buffer, 1),
	}
	newRoot.dirty.Store(true)
	t.rootID = newRoot.id
	s.cache.put(t, newRoot)
	newRoot.pins.Add(1)
	t.splitChild(newRoot, 0, old)
	newRoot.pins.Add(-1)
	t.markDirty(newRoot)
}

// splitChild splits child (at index ci of parent) into pieces, updating
// the parent's pivots, children, and buffers.
func (t *Tree) splitChild(parent *node, ci int, child *node) {
	s := t.store
	if child.isLeaf() {
		t.ensureAllBasements(child)
		entries := t.flattenLeaf(child)
		if len(entries) < 2 {
			return
		}
		atomic.AddInt64(&s.stats.LeafSplits, 1)
		s.m.leafSplit.Inc()
		// Split into halves no larger than NodeSize/2.
		pieces := splitEntries(entries, s.cfg.NodeSize/2)
		if len(pieces) < 2 {
			return
		}
		nodes := make([]*node, len(pieces))
		for i, p := range pieces {
			var nn *node
			if i == 0 {
				nn = child
				nn.basements = nil
			} else {
				nn = &node{id: t.newNodeID(), height: 0}
			}
			nn.dirty.Store(true)
			nn.basements = rebalanceBasements(p, s.cfg.BasementSize)
			nodes[i] = nn
		}
		var pivots [][]byte
		for i := 1; i < len(nodes); i++ {
			pivots = append(pivots, append([]byte{}, pieces[i][0].key...))
		}
		t.replaceChild(parent, ci, nodes, pivots)
		return
	}
	if len(child.children) < 2 {
		return
	}
	atomic.AddInt64(&s.stats.InternalSplits, 1)
	s.m.internalSplit.Inc()
	mid := len(child.children) / 2
	right := &node{
		id:       t.newNodeID(),
		height:   child.height,
		pivots:   append([][]byte{}, child.pivots[mid:]...),
		children: append([]nodeID{}, child.children[mid:]...),
		bufs:     append([]buffer{}, child.bufs[mid:]...),
	}
	right.dirty.Store(true)
	promoted := child.pivots[mid-1]
	child.pivots = child.pivots[:mid-1]
	child.children = child.children[:mid]
	child.bufs = child.bufs[:mid]
	t.markDirty(child)
	t.replaceChild(parent, ci, []*node{child, right}, [][]byte{promoted})
}

// replaceChild swaps parent.children[ci] for the given nodes with pivots
// between them, distributing the (already empty, post-flush) buffer.
func (t *Tree) replaceChild(parent *node, ci int, nodes []*node, pivots [][]byte) {
	s := t.store
	oldBuf := parent.bufs[ci]
	newChildren := make([]nodeID, 0, len(parent.children)+len(nodes)-1)
	newChildren = append(newChildren, parent.children[:ci]...)
	for _, n := range nodes {
		newChildren = append(newChildren, n.id)
	}
	newChildren = append(newChildren, parent.children[ci+1:]...)
	newPivots := make([][]byte, 0, len(parent.pivots)+len(pivots))
	newPivots = append(newPivots, parent.pivots[:ci]...)
	newPivots = append(newPivots, pivots...)
	newPivots = append(newPivots, parent.pivots[ci:]...)
	newBufs := make([]buffer, 0, len(parent.bufs)+len(nodes)-1)
	newBufs = append(newBufs, parent.bufs[:ci]...)
	for range nodes {
		newBufs = append(newBufs, buffer{})
	}
	newBufs = append(newBufs, parent.bufs[ci+1:]...)
	parent.children = newChildren
	parent.pivots = newPivots
	parent.bufs = newBufs
	// Re-route any residual messages from the old buffer.
	for _, m := range oldBuf.points {
		parent.bufs[parent.childFor(s.env, m.Key)].insert(m)
	}
	for _, m := range oldBuf.ranges {
		i := parent.childFor(s.env, m.Key)
		parent.bufs[i].insert(m)
		t.routeRangeMsg(parent, m, i)
	}
	t.markDirty(parent)
	for _, n := range nodes {
		n.computeMemSize()
		s.cache.put(t, n)
	}
}

// flattenLeaf concatenates all basement entries of a loaded leaf.
func (t *Tree) flattenLeaf(n *node) []entry {
	var out []entry
	for _, b := range n.basements {
		out = append(out, b.entries...)
	}
	return out
}

// splitEntries chunks entries into pieces of at most maxBytes.
func splitEntries(entries []entry, maxBytes int) [][]entry {
	var out [][]entry
	var cur []entry
	bytes := 0
	for _, e := range entries {
		sz := len(e.key) + e.val.Len() + entryOverhead
		if bytes+sz > maxBytes && len(cur) > 0 {
			out = append(out, cur)
			cur = nil
			bytes = 0
		}
		cur = append(cur, e)
		bytes += sz
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	if len(out) == 0 {
		out = append(out, nil)
	}
	return out
}

// rebalanceBasements packs entries into basement nodes of ~target bytes.
// Each basement records its first key so its key range stays well defined
// even if deletions later empty it.
func rebalanceBasements(entries []entry, target int) []*basement {
	var out []*basement
	cur := &basement{loaded: true}
	for _, e := range entries {
		sz := len(e.key) + e.val.Len() + entryOverhead
		if cur.bytes+sz > target && len(cur.entries) > 0 {
			out = append(out, cur)
			cur = &basement{loaded: true}
		}
		if len(cur.entries) == 0 {
			cur.firstKey = append([]byte{}, e.key...)
		}
		cur.entries = append(cur.entries, e)
		cur.bytes += sz
	}
	out = append(out, cur)
	return out
}

// --- queries ----------------------------------------------------------------

// pathEl is one step of a root-to-leaf descent: node, chosen child, and
// the key bounds that child covers.
type pathEl struct {
	n  *node
	ci int
}

// Get returns the newest value for key, or ok=false. The query walks one
// root-to-leaf path, gathering pending messages and applying them to the
// leaf entry in MSN order (§2.1), and then runs the configured
// apply-on-query policy (§4). A corrupted node or basement on the path
// surfaces an error wrapping ErrChecksum instead of garbage or a panic.
//
// Locking (concurrent mode, DESIGN.md §9): the query holds the store's
// shared structure lock for its whole duration, latches interior path
// nodes shared and the leaf exclusive (acquired top-down, held until the
// end so apply-on-query and read-ahead see a stable path), and runs
// concurrently with other queries, scans, and root injects into other
// nodes. The legacy v0.4 apply-on-query policy restructures ancestor
// buffers on reads, so it takes the exclusive structure lock instead.
// Deterministic mode takes no locks and is the historical code path.
func (t *Tree) Get(key []byte) (val []byte, found bool, err error) {
	// The guard also catches aborts raised below fetch — e.g. a cache
	// eviction whose inline write-back hits a device failure.
	defer ioerr.Guard(&err)
	atomic.AddInt64(&t.stats.Gets, 1)
	s := t.store
	s.m.queryGet.Inc()
	s.env.Charge(s.env.Costs.MessageOverhead)
	if s.cfg.LegacyApplyOnQuery {
		s.lockExcl()
		defer s.unlockExcl()
	} else {
		s.lockShared()
		defer s.unlockShared()
	}

	var path []pathEl
	var lo, hi []byte
	n, err := t.fetch(t.rootID, nil)
	if err != nil {
		return nil, false, err
	}
	if n.isLeaf() {
		s.latchExcl(n)
	} else {
		s.latchShared(n)
	}
	defer func() {
		for _, pe := range path {
			s.unlatchShared(pe.n)
			t.unpin(pe.n)
		}
		if n.isLeaf() {
			s.unlatchExcl(n)
		} else {
			s.unlatchShared(n)
		}
		t.unpin(n)
	}()
	for !n.isLeaf() {
		ci := n.childFor(s.env, key)
		var pk []byte
		if n.height == 1 {
			pk = key // child is a leaf: basement-granular read allowed
		}
		child, err := t.fetch(n.children[ci], pk)
		if err != nil {
			return nil, false, err
		}
		if child.isLeaf() {
			s.latchExcl(child)
		} else {
			s.latchShared(child)
		}
		lo, hi = n.childRange(ci, lo, hi)
		path = append(path, pathEl{n, ci})
		n = child
	}
	bi := n.basementFor(s.env, key)
	if err := t.ensureBasement(n, bi); err != nil {
		return nil, false, err
	}
	b := n.basements[bi]

	// Gather pending messages for this key from the path. The ancestor
	// shared latches exclude root injects, and the exclusive leaf latch
	// pins b.maxApplied, so the collected set is consistent.
	var pend []*Msg
	for _, pe := range path {
		pend = pe.n.bufs[pe.ci].collect(s.env, key, b.maxApplied, pend)
	}
	sort.SliceStable(pend, func(i, j int) bool { return pend[i].MSN < pend[j].MSN })

	// Compute the query result.
	val, found = currentValue(s, b, key, pend)
	if s.concurrent && found {
		// The value may point into basement-owned memory that a later
		// apply-on-query (ours or another reader's) can mutate once the
		// leaf latch drops; hand the caller a private copy. Host-side
		// only — no simulated charge, so deterministic results are
		// untouched.
		val = append([]byte(nil), val...)
	}

	// Apply-on-query (§4).
	t.applyOnQuery(path, n, bi, lo, hi, pend)

	// Read-ahead (§3.2): on sequential hints, prefetch upcoming
	// basements (or the next leaf when at the last basement).
	if t.seqHint.Load() && s.cfg.ReadAhead {
		t.prefetchAfter(path, n, bi)
	}
	return val, found, nil
}

// currentValue applies pending messages (ascending MSN) to the stored
// entry without mutating the tree.
func currentValue(s *Store, b *basement, key []byte, pend []*Msg) ([]byte, bool) {
	i, found := b.find(s.env, key)
	var val []byte
	if found {
		val = b.entries[i].val.Bytes()
	}
	if len(pend) == 0 {
		if !found {
			return nil, false
		}
		return val, true
	}
	exists := found
	cloned := false
	for _, m := range pend {
		s.env.Charge(s.env.Costs.MessageOverhead)
		switch m.Type {
		case MsgInsert:
			val = m.Val.Bytes()
			cloned = false
			exists = true
		case MsgDelete, MsgRangeDelete:
			val = nil
			exists = false
		case MsgUpdate:
			patch := m.Val.Bytes()
			need := m.Off + len(patch)
			if !cloned {
				nv := make([]byte, len(val))
				copy(nv, val)
				val = nv
				cloned = true
				s.env.Memcpy(len(val))
			}
			if need > len(val) {
				nv := make([]byte, need)
				copy(nv, val)
				val = nv
			}
			copy(val[m.Off:], patch)
			s.env.Memcpy(len(patch))
			exists = true
		}
	}
	if !exists {
		return nil, false
	}
	return val, true
}

// applyOnQuery implements both policies from §4.
//
// Legacy (v0.4): on every query, if the leaf is clean, search the path for
// any pending message targeting the queried basement's range and apply
// them in memory; if the leaf is dirty, flush (remove from ancestors) all
// messages targeting the whole leaf. This burns CPU proportional to the
// path's buffered messages on every query.
//
// v0.6: act only when pending messages affected this query's outcome, and
// then only for the queried key's basement.
func (t *Tree) applyOnQuery(path []pathEl, leaf *node, bi int, leafLo, leafHi []byte, pend []*Msg) {
	s := t.store
	legacy := s.cfg.LegacyApplyOnQuery
	if !legacy && len(pend) == 0 {
		return
	}
	atomic.AddInt64(&s.stats.ApplyOnQuery, 1)
	s.m.applyOnQuery.Inc()
	b := leaf.basements[bi]
	blo, bhi := basementRange(leaf, bi, leafLo, leafHi)

	if leaf.dirty.Load() && legacy {
		// Flush everything targeting the whole leaf out of the path.
		llo, lhi := boundsOrSentinels(leafLo, leafHi)
		var moved []*Msg
		for _, pe := range path {
			moved = append(moved, pe.n.bufs[pe.ci].removeOverlapping(s.env, llo, lhi)...)
			t.markDirty(pe.n)
		}
		sort.SliceStable(moved, func(i, j int) bool { return moved[i].MSN < moved[j].MSN })
		for _, m := range moved {
			t.applyToLeaf(leaf, m)
		}
		s.m.msgPushed.Add(int64(len(moved)))
		s.env.Trace("betree", "msg.pushed", "", int64(len(moved)))
		t.markDirty(leaf)
		return
	}

	// Clean-leaf path (both policies): apply the pending messages for the
	// whole basement range in memory, leaving ancestors untouched. The
	// policies differ in the *trigger* — legacy acts on every query,
	// v0.6 only when a pending message affected this query's outcome —
	// but the action is basement-wide either way, because applying bumps
	// the basement's maxApplied watermark and every message at or below
	// it must then be reflected in the basement.
	var msgs []*Msg
	for _, pe := range path {
		msgs = pe.n.bufs[pe.ci].collectRange(s.env, blo, bhi, b.maxApplied, msgs)
	}
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].MSN < msgs[j].MSN })
	pushed := int64(0)
	for _, m := range msgs {
		if !b.loaded {
			break
		}
		// Messages stay live in ancestor buffers, so apply clones.
		leaf.applyToBasement(s.env, bi, cloneForSharedApply(s.env, clipToBasement(m, blo, bhi)), false)
		pushed++
	}
	s.m.msgPushed.Add(pushed)
	if pushed > 0 {
		s.env.Trace("betree", "msg.pushed", "", pushed)
	}
	s.cache.resize(t, leaf)
}

// basementRange returns the key range a basement spans within its leaf,
// clipped to the leaf's own bounds (from the descent pivots).
func basementRange(leaf *node, bi int, leafLo, leafHi []byte) (lo, hi []byte) {
	lo, hi = boundsOrSentinels(leafLo, leafHi)
	if bi > 0 {
		if k := leaf.basements[bi].lowKey(); k != nil {
			lo = k
		}
	}
	if bi+1 < len(leaf.basements) {
		if k := leaf.basements[bi+1].lowKey(); k != nil {
			hi = k
		}
	}
	return lo, hi
}

// boundsOrSentinels replaces open bounds with concrete sentinels.
func boundsOrSentinels(lo, hi []byte) ([]byte, []byte) {
	if lo == nil {
		lo = []byte{}
	}
	if hi == nil {
		hi = maxKeySentinel
	}
	return lo, hi
}

// maxKeySentinel is an upper bound beyond any real key (keys are paths, so
// 0xff-prefixed keys do not occur).
var maxKeySentinel = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// prefetchAfter issues read-ahead under a sequential hint (§3.2): the
// upcoming basements arrive with the whole-leaf read, and the next leaf is
// prefetched as soon as the scan enters a leaf, so its device read fully
// overlaps the CPU work of consuming the current one.
func (t *Tree) prefetchAfter(path []pathEl, leaf *node, bi int) {
	s := t.store
	if bi+2 < len(leaf.basements) {
		for b := bi + 1; b <= bi+2; b++ {
			if !leaf.basements[b].loaded {
				// Best-effort read-ahead: a corrupt upcoming basement is
				// reported when (if) a query actually needs it.
				if t.ensureBasement(leaf, b) != nil {
					break
				}
			}
		}
	}
	// Prefetch the next leaf via the deepest ancestor with a right
	// sibling pointer (prefetch dedups against cache and pending reads).
	for i := len(path) - 1; i >= 0; i-- {
		pe := path[i]
		if pe.ci+1 < len(pe.n.children) {
			s.prefetch(t, pe.n.children[pe.ci+1])
			return
		}
	}
}

func (t *Tree) String() string {
	return fmt.Sprintf("betree(%s, root=%d)", t.name, t.rootID)
}

// LogInsertOnly appends an insert record to the redo log without touching
// the tree, returning the record's LSN. Conditional logging (§3.3) uses it
// to defer inode creation: the caller pins the log section via
// Store.Log().Pin(lsn) and performs the real insert on inode write-back.
func (t *Tree) LogInsertOnly(key, val []byte) (lsn uint64, err error) {
	defer ioerr.Guard(&err)
	s := t.store
	if s.concurrent {
		s.writerMu.Lock()
		defer s.writerMu.Unlock()
	}
	m := &Msg{Type: MsgInsert, Key: key, Val: InlineValue(val)}
	return s.logOp(t, m, true), nil
}
