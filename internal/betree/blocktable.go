package betree

import (
	"fmt"
	"sort"

	"betrfs/internal/codec"
	"betrfs/internal/ioerr"
)

// extent is a contiguous on-disk byte range within a tree's node file.
type extent struct {
	off int64
	len int64
}

// blockTable maps node IDs to on-disk extents, copy-on-write style
// (§2.2): node writes always allocate fresh space, and extents referenced
// by the last durable checkpoint are only recycled after the next
// checkpoint commits. The table itself is serialized into the superblock
// at each checkpoint.
type blockTable struct {
	capacity int64
	// entries is the mapping as of the running state (checkpointed
	// entries overlaid with post-checkpoint writes).
	entries map[nodeID]extent
	// checkpointed notes which node IDs were part of the last durable
	// checkpoint; their old extents must survive until the next one.
	checkpointed map[nodeID]bool
	// free is the sorted free list.
	free []extent
	// deferred holds extents that become free once the next checkpoint
	// commits.
	deferred []extent
	// defects is the grown-defect list: extents retired after a media
	// error, never returned to the free list. Persisted with the table so
	// a remount does not re-allocate known-bad space (DESIGN.md §10.6).
	defects []extent
	// onFree, when set, observes every extent the moment it returns to
	// the free list — the single point where betree space becomes dead.
	// The store uses it to hand freed extents to the device as TRIMs
	// (DESIGN.md §12). Retired (defect) extents never pass through here:
	// they are never freed, so they are never discarded.
	onFree func(extent)
}

const blockAlign = 4096

func newBlockTable(capacity int64) *blockTable {
	bt := &blockTable{
		capacity:     capacity,
		entries:      make(map[nodeID]extent),
		checkpointed: make(map[nodeID]bool),
	}
	bt.free = []extent{{off: 0, len: capacity}}
	return bt
}

func alignUp(n int64) int64 {
	return (n + blockAlign - 1) &^ (blockAlign - 1)
}

// allocate finds space for size bytes (first fit) and returns the extent.
func (bt *blockTable) allocate(size int64) (extent, error) {
	size = alignUp(size)
	for i, f := range bt.free {
		if f.len >= size {
			e := extent{off: f.off, len: size}
			if f.len == size {
				bt.free = append(bt.free[:i], bt.free[i+1:]...)
			} else {
				bt.free[i] = extent{off: f.off + size, len: f.len - size}
			}
			return e, nil
		}
	}
	return extent{}, fmt.Errorf("betree: node file full (want %d bytes): %w", size, ioerr.ErrNoSpace)
}

// release returns an extent to the free list, coalescing neighbors.
func (bt *blockTable) release(e extent) {
	i := sort.Search(len(bt.free), func(i int) bool { return bt.free[i].off > e.off })
	bt.free = append(bt.free, extent{})
	copy(bt.free[i+1:], bt.free[i:])
	bt.free[i] = e
	// Coalesce with successor, then predecessor.
	if i+1 < len(bt.free) && bt.free[i].off+bt.free[i].len == bt.free[i+1].off {
		bt.free[i].len += bt.free[i+1].len
		bt.free = append(bt.free[:i+1], bt.free[i+2:]...)
	}
	if i > 0 && bt.free[i-1].off+bt.free[i-1].len == bt.free[i].off {
		bt.free[i-1].len += bt.free[i].len
		bt.free = append(bt.free[:i], bt.free[i+1:]...)
	}
	if bt.onFree != nil {
		bt.onFree(e)
	}
}

// freeContains reports whether e lies entirely within free space. Because
// the free list never overlaps entries, deferred extents, or defects,
// containment here proves e maps no live data.
func (bt *blockTable) freeContains(e extent) bool {
	i := sort.Search(len(bt.free), func(i int) bool { return bt.free[i].off > e.off })
	if i == 0 {
		return false
	}
	f := bt.free[i-1]
	return e.off+e.len <= f.off+f.len
}

// place records a fresh extent for node id, handling the copy-on-write
// recycling rules for any previous extent.
func (bt *blockTable) place(id nodeID, e extent) {
	if old, ok := bt.entries[id]; ok {
		if bt.checkpointed[id] {
			// The last durable checkpoint still references it.
			bt.deferred = append(bt.deferred, old)
			bt.checkpointed[id] = false
		} else {
			bt.release(old)
		}
	}
	bt.entries[id] = e
}

// retire adds an extent to the grown-defect list, keeping it sorted by
// offset. Retired space is never freed: the media under it is bad.
func (bt *blockTable) retire(e extent) {
	i := sort.Search(len(bt.defects), func(i int) bool { return bt.defects[i].off > e.off })
	bt.defects = append(bt.defects, extent{})
	copy(bt.defects[i+1:], bt.defects[i:])
	bt.defects[i] = e
}

// relocate moves node id to freshly allocated space and retires its
// current extent to the defect list. Allocation happens first so an
// ENOSPC failure leaves the mapping untouched; on success the node is
// marked non-checkpointed (its new home must reach the next superblock)
// and the caller is responsible for rewriting the node image at the
// returned extent.
func (bt *blockTable) relocate(id nodeID, size int64) (extent, error) {
	old, ok := bt.entries[id]
	if !ok {
		return extent{}, fmt.Errorf("betree: relocate of unmapped node %d", id)
	}
	ne, err := bt.allocate(size)
	if err != nil {
		return extent{}, err
	}
	bt.retire(old)
	bt.checkpointed[id] = false
	bt.entries[id] = ne
	return ne, nil
}

// defectStats reports the grown-defect list size (count, bytes).
func (bt *blockTable) defectStats() (int64, int64) {
	var bytes int64
	for _, d := range bt.defects {
		bytes += d.len
	}
	return int64(len(bt.defects)), bytes
}

// lookup returns the extent of node id.
func (bt *blockTable) lookup(id nodeID) (extent, bool) {
	e, ok := bt.entries[id]
	return e, ok
}

// checkpointCommitted transitions the table after a checkpoint becomes
// durable: deferred extents become free, and the current mapping becomes
// the protected one.
func (bt *blockTable) checkpointCommitted() {
	for _, e := range bt.deferred {
		bt.release(e)
	}
	bt.deferred = bt.deferred[:0]
	bt.checkpointed = make(map[nodeID]bool, len(bt.entries))
	for id := range bt.entries {
		bt.checkpointed[id] = true
	}
}

// serialize encodes the mapping plus the grown-defect list (used at
// checkpoint time). The free list is rebuilt from both at load.
func (bt *blockTable) serialize() []byte {
	ids := make([]nodeID, 0, len(bt.entries))
	for id := range bt.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e := codec.Encoder{Buf: make([]byte, 0, 16+24*len(ids)+16*len(bt.defects))}
	e.U64(uint64(len(ids)))
	for _, id := range ids {
		x := bt.entries[id]
		e.U64(uint64(id))
		e.I64(x.off)
		e.I64(x.len)
	}
	// The defect section is appended only when non-empty: the loader
	// treats it as optional, and omitting it keeps a defect-free table
	// byte-identical to the pre-defect-list format (golden benchmark
	// cells checksum the superblock bytes' length).
	if len(bt.defects) > 0 {
		e.U64(uint64(len(bt.defects)))
		for _, x := range bt.defects {
			e.I64(x.off)
			e.I64(x.len)
		}
	}
	return e.Buf
}

// loadBlockTable reconstructs a table from its serialized form, rebuilding
// the free list from the gaps between allocated extents. The bytes come
// from the device, so nothing in them is trusted: a count the data cannot
// hold, an extent that is empty, negative or past the capacity, a node
// mapped twice, an overlap, or trailing bytes is an error, never a panic
// or a table that loses or invents space.
func loadBlockTable(capacity int64, data []byte) (*blockTable, error) {
	d := codec.NewDecoder(data)
	n := d.U64()
	if d.Err() != nil || n > uint64(d.Len()/24) {
		return nil, fmt.Errorf("betree: truncated block table entries")
	}
	bt := &blockTable{
		capacity:     capacity,
		entries:      make(map[nodeID]extent, n),
		checkpointed: make(map[nodeID]bool, n),
	}
	used := make([]extent, 0, n)
	for i := uint64(0); i < n; i++ {
		id := nodeID(d.U64())
		e, err := loadExtent(capacity, &d)
		if err != nil {
			return nil, err
		}
		if _, dup := bt.entries[id]; dup {
			return nil, fmt.Errorf("betree: node %d mapped twice in block table", id)
		}
		bt.entries[id] = e
		bt.checkpointed[id] = true
		used = append(used, e)
	}
	// Defect section (absent in pre-defect-list superblocks).
	if d.Len() > 0 {
		dn := d.U64()
		if d.Err() != nil || dn != uint64(d.Len()/16) || d.Len()%16 != 0 {
			return nil, fmt.Errorf("betree: block table defect list of %d extents in %d bytes", dn, d.Len())
		}
		bt.defects = make([]extent, 0, dn)
		for d.Len() > 0 {
			e, err := loadExtent(capacity, &d)
			if err != nil {
				return nil, err
			}
			bt.defects = append(bt.defects, e)
		}
	}
	// Rebuild the free list from the gaps between allocated extents and
	// grown defects; neither may overlap anything else.
	used = append(used, bt.defects...)
	sort.Slice(used, func(i, j int) bool { return used[i].off < used[j].off })
	pos := int64(0)
	for _, e := range used {
		if e.off < pos {
			return nil, fmt.Errorf("betree: overlapping extents in block table")
		}
		if e.off > pos {
			bt.free = append(bt.free, extent{off: pos, len: e.off - pos})
		}
		pos = e.off + e.len
	}
	if pos < capacity {
		bt.free = append(bt.free, extent{off: pos, len: capacity - pos})
	}
	sort.Slice(bt.defects, func(i, j int) bool { return bt.defects[i].off < bt.defects[j].off })
	return bt, nil
}

// loadExtent decodes one serialized extent (offset, length), which must
// be non-empty and lie inside [0, capacity). The caller has checked that
// the decoder holds its 16 bytes.
func loadExtent(capacity int64, d *codec.Decoder) (extent, error) {
	e := extent{off: d.I64(), len: d.I64()}
	if e.off < 0 || e.len <= 0 || e.off > capacity-e.len {
		return extent{}, fmt.Errorf("betree: block table extent [%d, +%d) outside [0, %d)", e.off, e.len, capacity)
	}
	return e, nil
}
