package vfs

import (
	"betrfs/internal/keys"
)

// File is an open file description with a cursor, as returned by Open.
type File struct {
	m   *Mount
	ino *inode
	pos int64
	// lastReadEnd and raPages implement per-file sequential read
	// detection with a growing read-ahead window, as the VFS does.
	lastReadEnd int64
	raPages     int
	closed      bool
}

// Create creates (or truncates) a file and opens it.
func (m *Mount) Create(path string) (*File, error) {
	return m.OpenFile(path, true, true)
}

// Open opens an existing file.
func (m *Mount) Open(path string) (*File, error) {
	return m.OpenFile(path, false, false)
}

// OpenFile opens path; create makes it if absent, trunc empties it.
func (m *Mount) OpenFile(path string, create, trunc bool) (*File, error) {
	m.lock()
	defer m.unlock()
	return m.openFileLocked(path, create, trunc)
}

func (m *Mount) openFileLocked(path string, create, trunc bool) (*File, error) {
	m.chargeSyscall()
	defer m.maintain()
	path = keys.Clean(path)
	if create {
		if err := checkName(path); err != nil {
			return nil, err
		}
	}
	ino, err := m.walk(path)
	if err == ErrNotExist && create {
		parentPath, name := keys.ParentAndName(path)
		parent, perr := m.walk(parentPath)
		if perr != nil {
			return nil, perr
		}
		if gerr := m.writeGate(); gerr != nil {
			return nil, gerr
		}
		m.m.create.Inc()
		m.env.Trace("vfs", "create", path, 0)
		h, attr, cerr := m.fs.Create(parent.h, name, false)
		if cerr != nil {
			return nil, cerr
		}
		ino = m.internInode(h, path, attr)
		m.markInodeDirty(ino)
		m.dcache[path] = &dentry{ino: ino}
		m.markInodeDirty(parent)
	} else if err != nil {
		return nil, err
	}
	if ino.attr.Dir {
		return nil, ErrIsDir
	}
	f := &File{m: m, ino: ino}
	if trunc && ino.attr.Size > 0 {
		if terr := f.truncateLocked(0); terr != nil {
			return nil, terr
		}
	}
	return f, nil
}

// Size returns the current file size.
func (f *File) Size() int64 {
	f.m.lock()
	defer f.m.unlock()
	return f.ino.attr.Size
}

// Truncate resizes the file to size (only shrinking discards data).
func (f *File) Truncate(size int64) error {
	f.m.lock()
	defer f.m.unlock()
	return f.truncateLocked(size)
}

func (f *File) truncateLocked(size int64) error {
	m := f.m
	m.chargeSyscall()
	if err := m.writeGate(); err != nil {
		return err
	}
	if size < f.ino.attr.Size {
		fromBlk := (size + PageSize - 1) / PageSize
		for blk, pg := range f.ino.pages {
			if blk >= fromBlk {
				m.dropPage(pg)
			}
		}
		if err := m.fs.TruncateBlocks(f.ino.h, fromBlk); err != nil {
			return err
		}
		// Zero the tail of the new EOF block so a later extension past
		// it reads zeros, not stale bytes (as the kernel does at
		// truncate time).
		if po := int(size % PageSize); po != 0 {
			blk := size / PageSize
			pg, ok := f.ino.pages[blk]
			if !ok {
				pg = m.newPage(f.ino, blk)
				if err := m.fs.ReadBlocks(f.ino.h, blk, []*Page{pg}, false); err != nil {
					m.dropPage(pg)
					return err
				}
			} else {
				pg = m.cowIfPinned(f.ino, blk, pg, false)
			}
			for i := po; i < PageSize; i++ {
				pg.Data[i] = 0
			}
			m.dirtyPage(pg)
		}
	}
	f.ino.attr.Size = size
	m.markInodeDirty(f.ino)
	return nil
}

// Write appends at the cursor.
func (f *File) Write(p []byte) (int, error) {
	f.m.lock()
	defer f.m.unlock()
	n, err := f.writeAtLocked(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// Read reads from the cursor.
func (f *File) Read(p []byte) (int, error) {
	f.m.lock()
	defer f.m.unlock()
	n, err := f.readAtLocked(p, f.pos)
	f.pos += int64(n)
	return n, err
}

// WriteAt writes p at offset off, through the page cache. Full-page
// overwrites never read; sub-page writes to uncached blocks either use the
// FS's blind-write path (WODs, §2.1) or fall back to read-modify-write.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	f.m.lock()
	defer f.m.unlock()
	return f.writeAtLocked(p, off)
}

func (f *File) writeAtLocked(p []byte, off int64) (int, error) {
	m := f.m
	m.chargeSyscall()
	defer m.maintain()
	opStart := m.env.Now()
	defer func() { m.m.writeNs.Observe(int64(m.env.Now() - opStart)) }()
	if err := m.writeGate(); err != nil {
		return 0, err
	}
	ino := f.ino
	m.m.bytesWrite.Add(int64(len(p)))
	rest := p
	pos := off
	written := 0
	for len(rest) > 0 {
		blk := pos / PageSize
		po := int(pos % PageSize)
		n := PageSize - po
		if n > len(rest) {
			n = len(rest)
		}
		chunk := rest[:n]
		m.env.Charge(m.env.Costs.PageCacheOp)
		pg, cached := ino.pages[blk]
		switch {
		case cached:
			pg = m.cowIfPinned(ino, blk, pg, po == 0 && n == PageSize)
			m.env.Memcpy(n)
			copy(pg.Data[po:po+n], chunk)
			m.dirtyPage(pg)
		case po == 0 && (n == PageSize || pos+int64(n) >= ino.attr.Size):
			// Full overwrite of the block (or write reaching EOF):
			// no read needed.
			pg = m.newPage(ino, blk)
			m.env.Memcpy(n)
			copy(pg.Data[:n], chunk)
			m.dirtyPage(pg)
		case m.fs.SupportsBlindWrites():
			// Sub-page write to an uncached block: blind update, no
			// page instantiated (§2.1 blind writes).
			m.m.writeBlind.Inc()
			m.env.Memcpy(n)
			if err := m.fs.WritePartial(ino.h, blk, po, chunk, false); err != nil {
				return f.finishWrite(written, pos, err)
			}
		default:
			// Read-modify-write, the update-in-place path.
			m.m.writeRMW.Inc()
			pg = m.newPage(ino, blk)
			if err := m.fs.ReadBlocks(ino.h, blk, []*Page{pg}, false); err != nil {
				m.dropPage(pg)
				return f.finishWrite(written, pos, err)
			}
			m.m.pageRead.Inc()
			m.env.Memcpy(n)
			copy(pg.Data[po:po+n], chunk)
			m.dirtyPage(pg)
		}
		rest = rest[n:]
		pos += int64(n)
		written += n
	}
	if _, err := f.finishWrite(written, pos, nil); err != nil {
		return written, err
	}
	m.balanceDirty()
	return len(p), nil
}

// finishWrite records how far a (possibly short) write got: the size
// grows to cover every byte actually written, the inode goes dirty
// (mtime), and the causing error passes through.
func (f *File) finishWrite(written int, pos int64, err error) (int, error) {
	if pos > f.ino.attr.Size {
		f.ino.attr.Size = pos
	}
	f.m.markInodeDirty(f.ino)
	return written, err
}

// ReadAt reads into p from offset off through the page cache with
// sequential read-ahead.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.m.lock()
	defer f.m.unlock()
	return f.readAtLocked(p, off)
}

func (f *File) readAtLocked(p []byte, off int64) (int, error) {
	m := f.m
	m.chargeSyscall()
	defer m.maintain()
	opStart := m.env.Now()
	read := 0
	defer func() {
		m.m.readNs.Observe(int64(m.env.Now() - opStart))
		m.m.bytesRead.Add(int64(read))
	}()
	ino := f.ino
	if off >= ino.attr.Size {
		return 0, nil
	}
	if max := ino.attr.Size - off; int64(len(p)) > max {
		p = p[:max]
	}
	seq := off == f.lastReadEnd && off > 0 || (off == 0 && f.lastReadEnd == 0)
	if seq {
		if f.raPages == 0 {
			f.raPages = 4
		} else if f.raPages < readAheadMaxPages {
			f.raPages *= 2
			if f.raPages > readAheadMaxPages {
				f.raPages = readAheadMaxPages
			}
		}
	} else {
		f.raPages = 0
	}
	pos := off
	for read < len(p) {
		blk := pos / PageSize
		po := int(pos % PageSize)
		n := PageSize - po
		if n > len(p)-read {
			n = len(p) - read
		}
		m.env.Charge(m.env.Costs.PageCacheOp)
		pg, ok := ino.pages[blk]
		if !ok {
			var ferr error
			pg, ferr = m.fillPages(ino, blk, seq, f.raPages)
			if ferr != nil {
				return read, ferr
			}
		} else {
			m.touchPage(pg)
		}
		m.env.Memcpy(n)
		copy(p[read:read+n], pg.Data[po:po+n])
		if !ok {
			// fillPages left the eviction its pages may cause to us, so
			// the page just read could not be recycled before the copy.
			m.evictClean()
		}
		read += n
		pos += int64(n)
	}
	f.lastReadEnd = off + int64(read)
	return read, nil
}

// fillPages reads block blk (plus read-ahead) from the FS and returns
// blk's page. On a read failure every just-instantiated page is dropped
// from the cache — a later retry must hit the FS again, not garbage. The
// new pages go onto the LRU but nothing is evicted yet: the caller copies
// out of blk's page first and then runs evictClean, which evicts exactly
// the pages page-by-page tracking would have, in the same order.
func (m *Mount) fillPages(ino *inode, blk int64, seq bool, raPages int) (*Page, error) {
	lastBlk := (ino.attr.Size + PageSize - 1) / PageSize
	count := 1
	if seq && raPages > 1 {
		count = raPages
	}
	if blk+int64(count) > lastBlk {
		count = int(lastBlk - blk)
		if count < 1 {
			count = 1
		}
	}
	var pages []*Page
	for i := 0; i < count; i++ {
		b := blk + int64(i)
		if _, ok := ino.pages[b]; ok && i > 0 {
			break // read-ahead ran into cached territory
		}
		if i > 0 {
			m.env.Charge(m.env.Costs.PageCacheOp)
		}
		pages = append(pages, m.newPage(ino, b))
	}
	if err := m.fs.ReadBlocks(ino.h, blk, pages, seq); err != nil {
		for _, pg := range pages {
			m.dropPage(pg)
		}
		return nil, err
	}
	m.m.pageRead.Add(int64(len(pages)))
	for _, pg := range pages {
		m.listClean(pg)
	}
	return pages[0], nil
}

// fsyncDurableMaxPages bounds how many dirty pages an fsync writes back
// through the payload-logged durable path; larger dirty sets go through
// normal write-back and the FS persists them wholesale (for BetrFS, a
// checkpoint — see the crash-semantics note in DESIGN.md).
const fsyncDurableMaxPages = 64

// Fsync writes back the file's dirty pages and metadata, then asks the FS
// for durability (§3.3, DESIGN.md). It returns the first failure from this
// pass or any latched background write-back error (errseq semantics: a
// latched error is reported by exactly one Fsync or Sync).
func (f *File) Fsync() error {
	f.m.lock()
	defer f.m.unlock()
	m := f.m
	m.chargeSyscall()
	m.m.fsync.Inc()
	opStart := m.env.Now()
	defer func() { m.m.fsyncNs.Observe(int64(m.env.Now() - opStart)) }()
	m.env.Trace("vfs", "fsync", f.ino.path, 0)
	dirty := 0
	for _, pg := range f.ino.pages {
		if pg.Dirty {
			dirty++
		}
	}
	m.writebackInodePages(f.ino, dirty <= fsyncDurableMaxPages)
	m.writebackInodeAttr(f.ino)
	err := m.fs.Fsync(f.ino.h)
	if err != nil {
		m.writebackError(err)
	}
	err = m.reportWbErr(nil)
	m.maintain()
	return err
}

// Close drops the descriptor (data remains cached; Close does not sync).
func (f *File) Close() {
	f.closed = true
}
