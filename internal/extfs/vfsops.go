package extfs

import (
	"fmt"
	"sort"

	"betrfs/internal/codec"
	"betrfs/internal/ioerr"
	"betrfs/internal/vfs"
	"betrfs/internal/wal"
)

// vfs.FS implementation. Handles are inode numbers.

// Root returns the root handle.
func (fs *FS) Root() vfs.Handle { return rootIno }

func (fs *FS) attrOf(x *xinode) vfs.Attr {
	return vfs.Attr{Dir: x.dir, Size: x.size, Nlink: x.nlink, Mtime: x.mtime}
}

// Lookup resolves name in parent, reading directory blocks and the child's
// inode-table block on cache misses.
func (fs *FS) Lookup(parent vfs.Handle, name string) (h vfs.Handle, a vfs.Attr, err error) {
	defer ioerr.Guard(&err)
	p := fs.inode(parent.(Ino))
	fs.loadDir(p)
	fs.env.Compare(len(name))
	d, ok := p.children[name]
	if !ok {
		return nil, vfs.Attr{}, vfs.ErrNotExist
	}
	x := fs.inode(d.ino)
	return d.ino, fs.attrOf(x), nil
}

// Create allocates an inode and adds the directory entry, journaling the
// operation.
func (fs *FS) Create(parent vfs.Handle, name string, dir bool) (h vfs.Handle, a vfs.Attr, err error) {
	defer ioerr.Guard(&err)
	if ferr := fs.writeGate(); ferr != nil {
		return nil, vfs.Attr{}, ferr
	}
	p := fs.inode(parent.(Ino))
	fs.loadDir(p)
	if _, ok := p.children[name]; ok {
		return nil, vfs.Attr{}, vfs.ErrExist
	}
	// Inode numbers are never reused, so the table is full once the next
	// number lies past its end: ENOSPC, as ext4 reports when it runs out
	// of inodes, and the mount stays writable.
	if fs.nextIno >= fs.maxInodes() {
		fs.noSpace()
	}
	ino := fs.nextIno
	fs.nextIno++
	x := &xinode{ino: ino, dir: dir, nlink: 1, mtime: fs.env.Now()}
	// Orlov-style spreading: directories created in the root go to a new
	// allocation group; files inherit the parent's group.
	if dir {
		x.nlink = 2
		x.children = map[string]dirent{}
		x.childrenLoaded = true
		if p.ino == rootIno {
			x.group = int(ino) % fs.prof.AllocGroups
		} else {
			x.group = p.group
		}
	} else {
		x.group = p.group
	}
	fs.inodes[ino] = x
	fs.markInodeDirty(x)
	p.children[name] = dirent{ino: ino, dir: dir}
	p.mtime = fs.env.Now()
	fs.markInodeDirty(p)
	fs.logRec(recCreate, func(e *codec.Encoder) {
		e.I64(int64(p.ino))
		putStr(e, name)
		e.I64(int64(ino))
		e.Bool(dir)
	})
	return ino, fs.attrOf(x), nil
}

// Remove unlinks name from parent, freeing the inode and its blocks.
func (fs *FS) Remove(parent vfs.Handle, name string, h vfs.Handle, dir bool) (err error) {
	defer ioerr.Guard(&err)
	if ferr := fs.writeGate(); ferr != nil {
		return ferr
	}
	p := fs.inode(parent.(Ino))
	fs.loadDir(p)
	d, ok := p.children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	x := fs.inode(d.ino)
	if dir {
		fs.loadDir(x)
		if len(x.children) > 0 {
			return vfs.ErrNotEmpty
		}
	}
	delete(p.children, name)
	p.mtime = fs.env.Now()
	fs.markInodeDirty(p)
	fs.freeAll(x)
	for _, b := range x.overflow {
		fs.bitClear(b)
	}
	delete(fs.inodes, d.ino)
	fs.eraseInode(d.ino)
	fs.logRec(recRemove, func(e *codec.Encoder) {
		e.I64(int64(p.ino))
		putStr(e, name)
		e.I64(int64(d.ino))
		e.Bool(dir)
	})
	return nil
}

// Rename moves the entry; inode numbers are stable so the handle is
// unchanged.
func (fs *FS) Rename(oldParent vfs.Handle, oldName string, h vfs.Handle, newParent vfs.Handle, newName string) (nh vfs.Handle, err error) {
	defer ioerr.Guard(&err)
	if ferr := fs.writeGate(); ferr != nil {
		return nil, ferr
	}
	op := fs.inode(oldParent.(Ino))
	np := fs.inode(newParent.(Ino))
	fs.loadDir(op)
	fs.loadDir(np)
	d, ok := op.children[oldName]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	delete(op.children, oldName)
	np.children[newName] = d
	op.mtime = fs.env.Now()
	np.mtime = fs.env.Now()
	fs.markInodeDirty(op)
	fs.markInodeDirty(np)
	fs.logRec(recRename, func(e *codec.Encoder) {
		e.I64(int64(op.ino))
		putStr(e, oldName)
		e.I64(int64(np.ino))
		putStr(e, newName)
		e.I64(int64(d.ino))
	})
	return h, nil
}

// ReadDir lists parent's children, in hash order for the ext4 flavor and
// sorted order for XFS. Entries are not Known: Linux's VFS does not
// instantiate inodes from readdir (§4).
func (fs *FS) ReadDir(h vfs.Handle) (ents []vfs.DirEntry, err error) {
	defer ioerr.Guard(&err)
	x := fs.inode(h.(Ino))
	if !x.dir {
		return nil, vfs.ErrNotDir
	}
	fs.loadDir(x)
	names := make([]string, 0, len(x.children))
	for name := range x.children {
		names = append(names, name)
	}
	if fs.prof.HashedReaddir {
		sort.Slice(names, func(i, j int) bool { return hashName(names[i]) < hashName(names[j]) })
	} else {
		sort.Strings(names)
	}
	out := make([]vfs.DirEntry, 0, len(names))
	for _, name := range names {
		d := x.children[name]
		out = append(out, vfs.DirEntry{Name: name, Dir: d.dir})
	}
	return out, nil
}

// WriteAttr persists inode metadata.
func (fs *FS) WriteAttr(h vfs.Handle, a vfs.Attr) (err error) {
	defer ioerr.Guard(&err)
	if ferr := fs.writeGate(); ferr != nil {
		return ferr
	}
	x := fs.inode(h.(Ino))
	x.size = a.Size
	x.mtime = a.Mtime
	fs.markInodeDirty(x)
	fs.logRec(recAttr, func(e *codec.Encoder) {
		e.I64(int64(x.ino))
		e.I64(a.Size)
		e.I64(int64(a.Nlink))
		e.I64(int64(a.Mtime))
	})
	return nil
}

// ReadBlocks fills pages from the file's extents.
func (fs *FS) ReadBlocks(h vfs.Handle, blk int64, pages []*vfs.Page, seq bool) (err error) {
	defer ioerr.Guard(&err)
	x := fs.inode(h.(Ino))
	// Merge the whole request into as few device reads as the physical
	// layout allows.
	buf := make([]byte, len(pages)*BlockSize)
	fs.readExtents(x, buf, blk*BlockSize)
	for i, pg := range pages {
		copy(pg.Data, buf[i*BlockSize:(i+1)*BlockSize])
	}
	fs.env.Memcpy(len(buf))
	return nil
}

// WriteBlocks writes a run of pages in place (ordered mode: data first,
// journal commit later), merging physically contiguous blocks into single
// device writes. Extent allocation is journaled.
func (fs *FS) WriteBlocks(h vfs.Handle, blk int64, pgs []*vfs.Page, durable bool) (err error) {
	defer ioerr.Guard(&err)
	if ferr := fs.writeGate(); ferr != nil {
		return ferr
	}
	x := fs.inode(h.(Ino))
	before := len(x.extents)
	buf := make([]byte, len(pgs)*BlockSize)
	for i, pg := range pgs {
		copy(buf[i*BlockSize:], pg.Data)
	}
	fs.writeExtents(x, buf, blk*BlockSize)
	// Journal any extents added by the allocation.
	for i := before; i <= len(x.extents)-1; i++ {
		e := x.extents[i]
		fs.logRec(recExtentAdd, func(enc *codec.Encoder) {
			enc.I64(int64(x.ino))
			enc.I64(e.logical)
			enc.I64(e.phys)
			enc.I64(e.count)
		})
	}
	if before > 0 && len(x.extents) >= before {
		// The pre-existing last extent may have grown by merging.
		e := x.extents[before-1]
		fs.logRec(recExtentAdd, func(enc *codec.Encoder) {
			enc.I64(int64(x.ino))
			enc.I64(e.logical)
			enc.I64(e.phys)
			enc.I64(e.count)
		})
	}
	// Ordered mode: the data is in place now; the journal transaction
	// that references it commits in Fsync/Sync/Maintain, not per run.
	_ = durable
	return nil
}

// WritePartial is unsupported: update-in-place file systems must
// read-modify-write. Calling it is a programmer error (the VFS checks
// SupportsBlindWrites first), so this panic stays.
func (fs *FS) WritePartial(h vfs.Handle, blk int64, off int, data []byte, durable bool) error {
	panic("extfs: blind writes unsupported")
}

// SupportsBlindWrites reports false.
func (fs *FS) SupportsBlindWrites() bool { return false }

// TruncateBlocks drops blocks at or beyond fromBlk.
func (fs *FS) TruncateBlocks(h vfs.Handle, fromBlk int64) (err error) {
	defer ioerr.Guard(&err)
	if ferr := fs.writeGate(); ferr != nil {
		return ferr
	}
	x := fs.inode(h.(Ino))
	fs.freeBlocksFrom(x, fromBlk)
	fs.logRec(recTruncate, func(e *codec.Encoder) {
		e.I64(int64(x.ino))
		e.I64(fromBlk)
	})
	return nil
}

// Fsync commits the journal (data already reached the device in ordered
// mode).
func (fs *FS) Fsync(h vfs.Handle) (err error) {
	defer ioerr.Guard(&err)
	if ferr := fs.writeGate(); ferr != nil {
		return ferr
	}
	fs.commit()
	return nil
}

// Sync commits the journal, writes back all dirty metadata, and refreshes
// the superblock's recovery hint.
func (fs *FS) Sync() (err error) {
	defer ioerr.Guard(&err)
	if ferr := fs.writeGate(); ferr != nil {
		return ferr
	}
	fs.writebackMeta()
	fs.commit()
	fs.jnl.log.Reclaim(fs.jnl.log.NextLSN())
	fs.writeSuper()
	return nil
}

// replayRecord applies one journal record during recovery. All of a
// record's fields are decoded and checked before any is applied: a record
// that is short, has trailing bytes, has an unknown type, names an inode
// outside the inode table, a negative size or block, or a file as a parent
// fails recovery with an EIO-class error. Records referencing inodes that
// did not survive the fsck pass are skipped.
func (fs *FS) replayRecord(rec wal.Record) error {
	d := codec.NewDecoder(rec.Payload)
	var (
		name, newName                 string
		dir                           bool
		size, nlink, mtime            int64
		logical, phys, count, fromBlk int64
	)
	// An inode field a record type lacks stays rootIno, which is in range.
	pino, npino, ino := rootIno, rootIno, rootIno
	switch rec.Type {
	case recCreate, recRemove:
		pino, name, ino, dir = Ino(d.I64()), getStr(&d), Ino(d.I64()), d.Bool()
	case recRename:
		pino, name, npino, newName, ino = Ino(d.I64()), getStr(&d), Ino(d.I64()), getStr(&d), Ino(d.I64())
	case recAttr:
		ino, size, nlink, mtime = Ino(d.I64()), d.I64(), d.I64(), d.I64()
	case recExtentAdd:
		ino, logical, phys, count = Ino(d.I64()), d.I64(), d.I64(), d.I64()
	case recTruncate:
		ino, fromBlk = Ino(d.I64()), d.I64()
	default:
		return fmt.Errorf("extfs: journal record %d of unknown type %d: %w", rec.LSN, rec.Type, ioerr.ErrIO)
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("extfs: journal record %d: %w: %w", rec.LSN, ioerr.ErrIO, err)
	}
	for _, i := range [...]Ino{pino, npino, ino} {
		if i < rootIno || i >= fs.maxInodes() {
			return fmt.Errorf("extfs: journal record %d names inode %d outside the table: %w", rec.LSN, i, ioerr.ErrIO)
		}
	}
	if size < 0 || fromBlk < 0 {
		return fmt.Errorf("extfs: journal record %d has size %d, first block %d: %w", rec.LSN, size, fromBlk, ioerr.ErrIO)
	}
	if rec.Type == recCreate || rec.Type == recRemove || rec.Type == recRename {
		for _, i := range [...]Ino{pino, npino} {
			if x, ok := fs.inodeIfPresent(i); ok && !x.dir {
				return fmt.Errorf("extfs: journal record %d names file %d as a parent: %w", rec.LSN, i, ioerr.ErrIO)
			}
		}
	}
	switch rec.Type {
	case recCreate:
		p, ok := fs.inodeIfPresent(pino)
		if !ok {
			return nil
		}
		fs.loadDir(p)
		p.children[name] = dirent{ino: ino, dir: dir}
		fs.markInodeDirty(p)
		if _, ok := fs.inodes[ino]; !ok {
			x := &xinode{ino: ino, dir: dir, nlink: 1, group: p.group}
			if dir {
				x.nlink = 2
				x.children = map[string]dirent{}
				x.childrenLoaded = true
			}
			fs.inodes[ino] = x
			fs.markInodeDirty(x)
		}
		if ino >= fs.nextIno {
			fs.nextIno = ino + 1
		}
	case recRemove:
		p, ok := fs.inodeIfPresent(pino)
		if !ok {
			return nil
		}
		fs.loadDir(p)
		delete(p.children, name)
		fs.markInodeDirty(p)
		if x, ok := fs.inodes[ino]; ok {
			fs.freeAll(x)
			delete(fs.inodes, ino)
		}
		fs.eraseInode(ino)
	case recRename:
		op, okOld := fs.inodeIfPresent(pino)
		np, okNew := fs.inodeIfPresent(npino)
		if !okOld || !okNew {
			return nil
		}
		fs.loadDir(op)
		fs.loadDir(np)
		if ent, ok := op.children[name]; ok && ent.ino == ino {
			delete(op.children, name)
			np.children[newName] = ent
			fs.markInodeDirty(op)
			fs.markInodeDirty(np)
		}
	case recAttr:
		x, ok := fs.inodeIfPresent(ino)
		if !ok {
			return nil
		}
		x.size = size
		x.nlink = int(nlink)
		x.mtime = timeDuration(mtime)
		fs.markInodeDirty(x)
	case recExtentAdd:
		x, ok := fs.inodeIfPresent(ino)
		if !ok {
			return nil
		}
		e := extent{logical: logical, phys: phys, count: count}
		if !fs.extentInRange(e) {
			return nil
		}
		if x.physFor(logical) < 0 {
			fs.appendExtent(x, e)
			for i := int64(0); i < count; i++ {
				fs.bitSet(phys + i)
			}
			fs.markInodeDirty(x)
		}
	case recTruncate:
		x, ok := fs.inodeIfPresent(ino)
		if !ok {
			return nil
		}
		fs.freeBlocksFrom(x, fromBlk)
	}
	return nil
}
