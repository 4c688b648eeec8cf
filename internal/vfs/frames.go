package vfs

import "sync"

// framePool is a mount's free list of page frames (DESIGN.md §5.6). A
// frame comes back when its reference word reaches zero, whichever holder
// let go last. The list holds at most the page cache's budget in frames,
// so recycling never keeps more memory than the cache itself may hold;
// frames beyond that are given up to the garbage collector. The FS may
// release a pinned page on a background goroutine (the Bε-tree's flusher
// pool), so the list has its own lock.
type framePool struct {
	mu   sync.Mutex
	free []*Page
	max  int
	// out counts frames handed out and neither returned nor given up.
	out int64
}

// get returns a zeroed, unlinked frame for block blk of ino, held by the
// page cache.
func (fp *framePool) get(ino *inode, blk int64) *Page {
	fp.mu.Lock()
	fp.out++
	var pg *Page
	if n := len(fp.free); n > 0 {
		pg = fp.free[n-1]
		fp.free[n-1] = nil
		fp.free = fp.free[:n-1]
	}
	fp.mu.Unlock()
	if pg == nil {
		pg = &Page{Data: make([]byte, PageSize), frames: fp}
	}
	pg.ref.Store(1)
	pg.ino, pg.blk = ino, blk
	return pg
}

// put takes back a frame nothing holds any more. It is zeroed here, on
// the releasing side, so a reader that kept using the page after dropping
// its hold reads zeros rather than another file's bytes. The zeroing is a
// copy rather than clear because the race detector sees a copy's writes:
// a read that outlived its hold is reported even when it came first.
func (fp *framePool) put(pg *Page) {
	copy(pg.Data, zeroFrame[:])
	pg.ino = nil // a frame on the list must not keep a deleted inode alive
	fp.mu.Lock()
	fp.out--
	if len(fp.free) < fp.max {
		fp.free = append(fp.free, pg)
	}
	fp.mu.Unlock()
}

var zeroFrame [PageSize]byte

// pageList is an intrusive doubly linked list of pages: the clean LRU
// (newest at the front) or the dirty list (oldest at the front). A page is
// on at most one list at a time.
type pageList struct {
	front, back *Page
}

func (l *pageList) pushFront(pg *Page) {
	pg.list, pg.prev, pg.next = l, nil, l.front
	if l.front != nil {
		l.front.prev = pg
	} else {
		l.back = pg
	}
	l.front = pg
}

func (l *pageList) pushBack(pg *Page) {
	pg.list, pg.prev, pg.next = l, l.back, nil
	if l.back != nil {
		l.back.next = pg
	} else {
		l.front = pg
	}
	l.back = pg
}

func (l *pageList) remove(pg *Page) {
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		l.front = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		l.back = pg.prev
	}
	pg.list, pg.prev, pg.next = nil, nil, nil
}

func (l *pageList) moveToFront(pg *Page) {
	if l.front != pg {
		l.remove(pg)
		l.pushFront(pg)
	}
}
