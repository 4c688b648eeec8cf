package vfs

import "sort"

// Page-cache accounting and write-back: dirty pages age out after
// dirtyExpire or are flushed when writers cross the dirty watermark
// (balance_dirty_pages); clean pages are evicted LRU under memory
// pressure. Dirty inodes are written back alongside their pages, which is
// when BetrFS's conditional logging finally inserts deferred inode-create
// messages into the tree (§3.3).

// newPage takes a frame from the mount's free list for (ino, blk),
// replacing any existing entry. The cache holds the new page.
func (m *Mount) newPage(ino *inode, blk int64) *Page {
	if old, ok := ino.pages[blk]; ok {
		m.dropPage(old)
	}
	pg := m.frames.get(ino, blk)
	ino.pages[blk] = pg
	return pg
}

// cowIfPinned returns a writable page for (ino, blk): if the FS holds a
// reference to the current page (page sharing, §6), a fresh page replaces
// it in the cache — copying the old contents unless the write fully
// overwrites the block — and the pinned page remains immutable, owned by
// the FS. The cache's hold on the old page is dropped only after the copy:
// the FS may release its last pin at any moment (from a background flush
// in concurrent mode), and the frame must not be recycled mid-copy.
func (m *Mount) cowIfPinned(ino *inode, blk int64, pg *Page, fullOverwrite bool) *Page {
	if !pg.Pinned() {
		m.touchPage(pg)
		return pg
	}
	m.m.cowCopy.Inc()
	npg := m.frames.get(ino, blk)
	if !fullOverwrite {
		m.env.Memcpy(PageSize)
		copy(npg.Data, pg.Data)
	}
	m.env.ChargeAlloc(m.env.Costs.KmallocBase)
	m.dropPage(pg)
	ino.pages[blk] = npg
	return npg
}

// dirtyPage moves a page onto the dirty list.
func (m *Mount) dirtyPage(pg *Page) {
	if pg.Dirty {
		return
	}
	if pg.list == &m.lru {
		m.lru.remove(pg)
		m.cleanBytes -= PageSize
	}
	pg.Dirty = true
	pg.dirtiedAt = m.env.Now()
	m.dirty.pushBack(pg)
	m.dirtyBytes += PageSize
}

// trackClean registers a clean page for LRU eviction.
func (m *Mount) trackClean(pg *Page) {
	m.listClean(pg)
	m.evictClean()
}

// listClean puts a clean page at the front of the LRU without evicting.
func (m *Mount) listClean(pg *Page) {
	if pg.Dirty || pg.list == &m.lru {
		return
	}
	m.lru.pushFront(pg)
	m.cleanBytes += PageSize
}

// touchPage refreshes LRU position.
func (m *Mount) touchPage(pg *Page) {
	if pg.list == &m.lru {
		m.lru.moveToFront(pg)
	}
}

// forgetPage takes a page off the LRU or the dirty list (a dirty page
// becomes clean); the page stays in its inode's page map.
func (m *Mount) forgetPage(pg *Page) {
	switch pg.list {
	case &m.lru:
		m.lru.remove(pg)
		m.cleanBytes -= PageSize
	case &m.dirty:
		m.dirty.remove(pg)
		m.dirtyBytes -= PageSize
		pg.Dirty = false
	}
}

// dropPage removes a page from the cache (evicted, truncated, deleted,
// replaced, or a failed fill) and drops the cache's hold on its frame.
// Callers make their last read of the page before dropping it.
func (m *Mount) dropPage(pg *Page) {
	m.forgetPage(pg)
	delete(pg.ino.pages, pg.blk)
	pg.unref(1)
}

// dropInodePages discards all of an inode's pages (file deleted).
func (m *Mount) dropInodePages(ino *inode) {
	for _, pg := range ino.pages {
		m.dropPage(pg)
	}
}

// maxWritebackRun caps one coalesced write-back I/O (1 MiB).
const maxWritebackRun = 256

// writebackPage sends the maximal contiguous dirty run around one page to
// the FS in a single call (bio merging); the pages stay cached clean
// (possibly pinned by the FS under page sharing).
func (m *Mount) writebackPage(pg *Page, durable bool) {
	if !pg.Dirty {
		return
	}
	ino := pg.ino
	start := pg.blk
	for start > 0 {
		prev, ok := ino.pages[start-1]
		if !ok || !prev.Dirty || pg.blk-start >= maxWritebackRun/2 {
			break
		}
		start--
	}
	run := m.run[:0]
	for b := start; len(run) < maxWritebackRun; b++ {
		p, ok := ino.pages[b]
		if !ok || !p.Dirty {
			break
		}
		run = append(run, p)
	}
	m.writebackRun(ino, start, run, durable)
	clear(run)
	m.run = run
}

// writebackRun writes one contiguous run of dirty pages. On failure the
// pages are still marked clean — as the kernel does after a failed
// write-back — so the dirty lists always drain and the balance/maintain
// loops terminate; the error is latched for the next Fsync/Sync (and, for
// EIO, degrades the mount read-only). The data stays readable from cache.
func (m *Mount) writebackRun(ino *inode, blk int64, run []*Page, durable bool) {
	for _, p := range run {
		m.forgetPage(p)
	}
	err := m.fs.WriteBlocks(ino.h, blk, run, durable)
	m.m.pageWrite.Add(int64(len(run)))
	for _, p := range run {
		m.trackClean(p)
	}
	if err != nil {
		m.writebackError(err)
	}
}

// writebackInodePages flushes all dirty pages of one inode in block order,
// coalescing contiguous runs into single FS calls.
func (m *Mount) writebackInodePages(ino *inode, durable bool) {
	var blks []int64
	for blk, pg := range ino.pages {
		if pg.Dirty {
			blks = append(blks, blk)
		}
	}
	sortInt64s(blks)
	i := 0
	for i < len(blks) {
		j := i + 1
		for j < len(blks) && blks[j] == blks[j-1]+1 && j-i < maxWritebackRun {
			j++
		}
		run := make([]*Page, 0, j-i)
		for _, b := range blks[i:j] {
			run = append(run, ino.pages[b])
		}
		m.writebackRun(ino, blks[i], run, durable)
		i = j
	}
}

// writebackInodeAttr persists dirty inode metadata. Failures latch like
// page write-back failures, and the inode is still marked clean so the
// dirty-inode set drains (the attribute stays correct in the icache).
func (m *Mount) writebackInodeAttr(ino *inode) {
	if !ino.dirty {
		return
	}
	if err := m.fs.WriteAttr(ino.h, ino.attr); err != nil {
		m.writebackError(err)
	}
	ino.dirty = false
	delete(m.dirtyInodes, ino)
}

// balanceDirty throttles writers: above the dirty watermark, the oldest
// dirty pages are written back until the count drops to half the
// watermark.
func (m *Mount) balanceDirty() {
	high := int64(float64(m.cfg.CacheBytes) * dirtyRatio)
	if m.dirtyBytes <= high {
		return
	}
	low := high / 2
	for m.dirtyBytes > low && m.dirty.front != nil {
		m.writebackPage(m.dirty.front, false)
	}
}

// evictClean drops cold clean pages when the cache exceeds its budget.
func (m *Mount) evictClean() {
	for m.cleanBytes+m.dirtyBytes > m.cfg.CacheBytes {
		pg := m.lru.back
		if pg == nil {
			return
		}
		m.dropPage(pg)
		m.m.pageEvict.Inc()
	}
}

// maintain runs periodic background work from operation paths: expired
// dirty pages and inodes are written back and the FS gets a maintenance
// tick (checkpoint timers, segment cleaning, txg commits).
func (m *Mount) maintain() {
	now := m.env.Now()
	if now-m.lastMaintain < maintainInterval {
		return
	}
	m.lastMaintain = now
	// Expired dirty pages (dirty_expire_centisecs): the dirty list is in
	// dirtying order, so flush from the front while pages are past due.
	for pg := m.dirty.front; pg != nil; pg = m.dirty.front {
		if now-pg.dirtiedAt < dirtyExpire {
			break
		}
		m.writebackPage(pg, false)
	}
	for _, ino := range m.sortedDirtyInodes() {
		if now-m.dirtyInodes[ino] >= dirtyExpire {
			m.writebackInodePages(ino, false)
			m.writebackInodeAttr(ino)
		}
	}
	m.fs.Maintain()
}

// sortedDirtyInodes snapshots the dirty-inode set in path order. The map
// is keyed by pointer, so ranging it directly would write inodes back in
// a different order every run — and write-back order is charge-visible
// (it decides FS write ordering and therefore simulated seek costs).
func (m *Mount) sortedDirtyInodes() []*inode {
	out := make([]*inode, 0, len(m.dirtyInodes))
	for ino := range m.dirtyInodes {
		out = append(out, ino)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// writebackAll flushes every dirty page and inode.
func (m *Mount) writebackAll(durable bool) {
	for m.dirty.front != nil {
		m.writebackPage(m.dirty.front, durable)
	}
	for _, ino := range m.sortedDirtyInodes() {
		m.writebackInodeAttr(ino)
	}
}

func sortInt64s(s []int64) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
