package betree

import (
	"sort"
	"sync"
	"sync/atomic"

	"betrfs/internal/keys"
	"betrfs/internal/sim"
)

// nodeID names a node; the block table maps it to an on-disk extent.
type nodeID uint64

// entry is one key-value pair in a basement node.
type entry struct {
	key []byte
	val Value
}

// basement is a sub-leaf unit (§2.2): leaves are partitioned into basement
// nodes (~128 KiB) so that point queries can read a fraction of a large
// leaf. maxApplied records the highest MSN whose effects are reflected in
// the entries, which is what makes apply-on-query and flushing idempotent.
type basement struct {
	entries    []entry
	maxApplied MSN
	bytes      int
	loaded     bool
	part
	// firstKey bounds the basement's key range when entries are not
	// loaded; for loaded basements the entries themselves bound it.
	firstKey []byte
}

// part is what a leaf's basement and an interior node's child buffer share
// as partitions of a node image (DESIGN.md §7.2): where the partition lies
// in the node's extent, valid when the node came from disk (offsets are
// node-relative), its directory checksum, and whether its contents still
// equal those bytes.
type part struct {
	// The small section holds keys, small values and message headers;
	// the page range holds 4 KiB-aligned values (the §6 on-disk format).
	// An interior partition's page range follows its small section
	// directly, so the two are one device read. A basement's small
	// section lies apart from its pages, but usually inside the header
	// region, and then the shell read keeps it (kept), so that loading
	// the basement reads only its page range.
	diskOff int
	diskLen int
	pageOff int
	pageLen int
	// kept is the small section as the shell read fetched it, until the
	// partition loads; verified with the page range against crc. Kept
	// sections of one leaf borrow the header-region image the shell was
	// read into (node.keepSmall).
	kept Value
	// crc is the directory checksum over the small section and page
	// range, verified when the partition is materialized from disk.
	crc uint32
	// count is the directory's entry or message count.
	count int
	// clean is set while the partition holds exactly what it was loaded
	// from or last written as; a write-back of it rewrites unchanged
	// bytes (betree.bytes.written.clean).
	clean bool
}

func (b *basement) entryBytes() int {
	n := 0
	for i := range b.entries {
		n += len(b.entries[i].key) + b.entries[i].val.Len() + entryOverhead
	}
	return n
}

const entryOverhead = 24

// find locates key within the basement, charging a binary search.
func (b *basement) find(env *sim.Env, key []byte) (int, bool) {
	lo, hi := 0, len(b.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		env.Compare(len(key))
		c := keys.Compare(b.entries[mid].key, key)
		if c == 0 {
			return mid, true
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, false
}

// node is an in-memory Bε-tree node.
type node struct {
	id     nodeID
	height int // 0 = leaf
	// dirty is read by cache eviction sweeps concurrently with writers
	// marking the node, hence atomic.
	dirty atomic.Bool

	// latch is the per-node reader/writer lock (DESIGN.md §9): descent
	// takes it shared hand-over-hand; buffer appends and leaf mutation
	// (basement loads, apply-on-query, scan materialization) take it
	// exclusive. Structural operations (flush, split, checkpoint) run
	// under the store's exclusive structure lock instead and do not
	// latch. pivots, children, and height only change under that
	// structure lock, so descent may read them with just the latch.
	latch sync.RWMutex

	// Interior state: child i covers keys < pivots[i] (and >= pivots[i-1]).
	pivots   [][]byte
	children []nodeID
	bufs     []buffer

	// Leaf state.
	basements []*basement
	// pageBase is the on-disk page-section base offset, captured from
	// the (verified) header when the node was decoded from disk; basement
	// partial loads need it to resolve aligned value offsets.
	pageBase int

	// img is the image of an interior node read partially: each child
	// buffer is read into its own range of it when it is needed, and its
	// values borrow it. The node holds one borrow of it while cached.
	img *image

	// pins counts the users holding the node; the cache evicts only
	// unpinned nodes. Atomic: the cache pins under its shard lock, but
	// unpin is lock-free.
	pins atomic.Int32
}

func (n *node) isLeaf() bool { return n.height == 0 }

// bufferBytes is the total buffered message volume of an interior node.
func (n *node) bufferBytes() int {
	total := 0
	for i := range n.bufs {
		total += n.bufs[i].bytes
	}
	return total
}

// leafBytes is the total payload volume of a leaf (loaded basements only).
func (n *node) leafBytes() int {
	total := 0
	for _, b := range n.basements {
		total += b.bytes
	}
	return total
}

// childFor returns the index of the child covering key, charging a binary
// search over the pivots.
func (n *node) childFor(env *sim.Env, key []byte) int {
	lo, hi := 0, len(n.pivots)
	for lo < hi {
		mid := (lo + hi) / 2
		env.Compare(len(key))
		if keys.Compare(n.pivots[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cutRuns cuts key-sorted point messages into per-child runs with one
// merge against the pivots, charging a comparison per message and per
// pivot it passes: m + F in all, where routing each message by binary
// search would charge m·⌈log₂ F⌉. Child ci's run is msgs[ends[ci-1]:ends[ci]].
func (n *node) cutRuns(env *sim.Env, msgs []*Msg) (ends []int) {
	ends = make([]int, len(n.children))
	i := 0
	for ci, p := range n.pivots {
		for i < len(msgs) {
			env.Compare(len(msgs[i].Key))
			if keys.Compare(msgs[i].Key, p) >= 0 {
				break
			}
			i++
		}
		ends[ci] = i
	}
	ends[len(n.pivots)] = len(msgs)
	return ends
}

// childRange returns the key range [lo, hi) that child i covers, clipped
// to the bounds the caller knows for this node (nil means unbounded).
func (n *node) childRange(i int, lo, hi []byte) (clo, chi []byte) {
	clo, chi = lo, hi
	if i > 0 {
		clo = n.pivots[i-1]
	}
	if i < len(n.pivots) {
		chi = n.pivots[i]
	}
	return clo, chi
}

// basementFor returns the index of the basement that should hold key.
func (n *node) basementFor(env *sim.Env, key []byte) int {
	if len(n.basements) == 1 {
		return 0
	}
	lo, hi := 1, len(n.basements)
	for lo < hi {
		mid := (lo + hi) / 2
		env.Compare(len(key))
		if keys.Compare(n.basements[mid].lowKey(), key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// lowKey returns the lower bound of the basement's key range: the
// recorded boundary when available (it stays valid when deletions empty
// the basement), else the first live entry.
func (b *basement) lowKey() []byte {
	if b.firstKey != nil {
		return b.firstKey
	}
	if b.loaded && len(b.entries) > 0 {
		return b.entries[0].key
	}
	return nil
}

// applyToBasement applies m to basement bi of leaf n in MSN order,
// honoring the basement's maxApplied guard. Returns whether the leaf
// changed. withCopies charges a memcpy of the value, modeling the
// copy-per-level behaviour of BetrFS v0.4 (§6); page sharing elides it.
func (n *node) applyToBasement(env *sim.Env, bi int, m *Msg, withCopies bool) bool {
	b := n.basements[bi]
	if !b.loaded {
		panic("betree: apply to unloaded basement")
	}
	if m.MSN <= b.maxApplied {
		// Already reflected here (apply-on-query or a scan materialized
		// it). The message is consumed: drop any payload it owns.
		m.Val.Release()
		return false
	}
	b.maxApplied = m.MSN
	b.clean = false
	env.Charge(env.Costs.MessageOverhead)
	switch m.Type {
	case MsgInsert:
		if withCopies && !m.Val.IsRef() {
			env.Memcpy(m.Val.Len())
		}
		i, found := b.find(env, m.Key)
		if found {
			b.bytes -= b.entries[i].val.Len()
			b.entries[i].val.Release()
			b.entries[i].val = m.Val
			b.bytes += m.Val.Len()
		} else {
			b.entries = append(b.entries, entry{})
			copy(b.entries[i+1:], b.entries[i:])
			b.entries[i] = entry{key: m.Key, val: m.Val}
			b.bytes += len(m.Key) + m.Val.Len() + entryOverhead
		}
		return true
	case MsgDelete:
		i, found := b.find(env, m.Key)
		if !found {
			return false
		}
		b.bytes -= len(b.entries[i].key) + b.entries[i].val.Len() + entryOverhead
		b.entries[i].val.Release()
		b.entries = cutEntries(b.entries, i, i+1)
		return true
	case MsgUpdate:
		// The patch is consumed here: its bytes are copied into the
		// value, and the message's own payload is released.
		defer m.Val.Release()
		i, found := b.find(env, m.Key)
		patch := m.Val.Bytes()
		if !found {
			// Blind update to an absent key materializes a value of
			// zeros up to the patched range.
			v := make([]byte, int(m.Off)+len(patch))
			copy(v[m.Off:], patch)
			env.Memcpy(len(v))
			ins := &Msg{Type: MsgInsert, MSN: m.MSN, Key: m.Key, Val: InlineValue(v)}
			b.maxApplied = m.MSN - 1 // let the insert pass the guard
			return n.applyToBasement(env, bi, ins, withCopies)
		}
		val := b.entries[i].val
		oldLen := val.Len()
		if need := int(m.Off) + len(patch); need > oldLen || val.IsRef() {
			// A grown value, or a shared page (copy-on-write), gets a
			// private copy. Otherwise the patch lands in place, and a
			// value borrowed from a node image keeps its borrow.
			v := make([]byte, max(need, oldLen))
			copy(v, val.Bytes())
			val.Release()
			val = InlineValue(v)
		}
		env.Memcpy(len(patch))
		copy(val.data[m.Off:], patch)
		b.bytes += val.Len() - oldLen
		b.entries[i].val = val
		return true
	case MsgRangeDelete:
		lo := sort.Search(len(b.entries), func(i int) bool {
			env.Compare(len(m.Key))
			return keys.Compare(b.entries[i].key, m.Key) >= 0
		})
		hi := sort.Search(len(b.entries), func(i int) bool {
			env.Compare(len(m.EndKey))
			return keys.Compare(b.entries[i].key, m.EndKey) >= 0
		})
		if lo >= hi {
			return false
		}
		for i := lo; i < hi; i++ {
			b.bytes -= len(b.entries[i].key) + b.entries[i].val.Len() + entryOverhead
			b.entries[i].val.Release()
		}
		b.entries = cutEntries(b.entries, lo, hi)
		return true
	default:
		panic("betree: unknown message type")
	}
}

// cutEntries removes es[lo:hi] by shifting whichever side of the gap is
// shorter: the prefix moves up and the slice is resliced from the front,
// or the suffix moves down. A delete near either end of a large basement
// thus moves a few entries rather than the whole basement. Every slot the
// cut vacates is zeroed, so no deleted key or image borrow stays reachable
// through the backing array.
func cutEntries(es []entry, lo, hi int) []entry {
	if lo < len(es)-hi {
		copy(es[hi-lo:hi], es[:lo])
		clear(es[:hi-lo])
		return es[hi-lo:]
	}
	copy(es[lo:], es[hi:])
	clear(es[len(es)-(hi-lo):])
	return es[:len(es)-(hi-lo)]
}

// cloneForSharedApply returns a message safe to apply to a leaf while the
// original remains live in an ancestor buffer (scan and apply-on-query
// materialization): the payload is copied so the leaf entry does not alias
// buffer-owned memory. The copy is charged — building a materialized view
// costs a memcpy. An update's patch is copied into the value it patches
// and never kept, so its clone views the buffer's bytes, holding nothing,
// and the host skips that copy.
func cloneForSharedApply(env *sim.Env, m *Msg) *Msg {
	if m.Type != MsgInsert && m.Type != MsgUpdate {
		return m
	}
	c := *m
	env.Memcpy(m.Val.Len())
	if m.Type == MsgUpdate {
		c.Val = InlineValue(m.Val.Bytes())
	} else {
		c.Val = InlineValue(append([]byte{}, m.Val.Bytes()...))
	}
	return &c
}

// releaseRefs drops all page references and image borrows held by the
// node, used when the node is discarded from the cache.
func (n *node) releaseRefs() {
	for i := range n.bufs {
		for _, m := range n.bufs[i].points { // range deletes carry no value
			m.Val.Release()
		}
	}
	for _, b := range n.basements {
		for i := range b.entries {
			b.entries[i].val.Release()
		}
		b.dropKept()
	}
	if n.img != nil {
		n.img.Release()
		n.img = nil
	}
}

// cleanBytes sums the image bytes of n's partitions that still hold what
// they were loaded from or last written as.
func (n *node) cleanBytes() int {
	total := 0
	for _, p := range n.parts() {
		if p.clean {
			total += p.diskLen + p.pageLen
		}
	}
	return total
}

// markClean records that every partition of n holds what its last
// serialized image does, once that image is on its way to the device.
func (n *node) markClean() {
	for _, p := range n.parts() {
		p.clean = true
	}
}

// memSize estimates the node's in-memory footprint: what the cache charges
// for it and what serialization reserves for its image.
func (n *node) memSize() int {
	total := 256
	for i := range n.pivots {
		total += len(n.pivots[i]) + 16
	}
	for i := range n.bufs {
		total += n.bufs[i].bytes
	}
	for _, b := range n.basements {
		total += 64 + b.kept.Len()
		if b.loaded {
			total += b.bytes
		}
	}
	return total
}

// keepSmall gives each basement of leaf n whose small section lies inside
// hdr, the header region a partial read fetched, a borrow of those bytes,
// which loadPart takes instead of reading them again. The simulation
// charges the copy of their span that the kernel keeps; the host lends the
// image instead of copying it.
func (n *node) keepSmall(env *sim.Env, hdr *image) {
	lo, hi := len(hdr.b), 0
	for _, b := range n.basements {
		if end := b.diskOff + b.diskLen; end <= len(hdr.b) && b.diskLen > 0 {
			lo, hi = min(lo, b.diskOff), max(hi, end)
			b.kept = Value{data: hdr.b[b.diskOff:end:end], hold: hdr}
			hdr.refs.Add(1)
		}
	}
	if lo < hi {
		env.Memcpy(hi - lo)
	}
}

// dropKept lets go of the kept small section.
func (p *part) dropKept() {
	p.kept.Release()
	p.kept = Value{}
}
