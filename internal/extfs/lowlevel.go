package extfs

import (
	"betrfs/internal/blockdev"
	"betrfs/internal/ioerr"
	"betrfs/internal/vfs"
)

// Low-level file API for the stacked BetrFS v0.4 southbound (§2.2): the
// Bε-tree's 11 files live as regular extfs files, fallocate()-ed up front.
// I/O here is direct to the file's extents; the southbound package layers
// the klibc page-cache copies and write-back stalls on top.

// ExtFile is an open low-level file.
type ExtFile struct {
	fs *FS
	x  *xinode
}

// OpenLowLevel creates (or opens) a root-level file named name,
// preallocated to size bytes in as few extents as possible.
func (fs *FS) OpenLowLevel(name string, size int64) *ExtFile {
	root := fs.inode(rootIno)
	fs.loadDir(root)
	if d, ok := root.children[name]; ok {
		return &ExtFile{fs: fs, x: fs.inode(d.ino)}
	}
	h, _, err := fs.Create(rootIno, name, false)
	if err != nil {
		panic(err)
	}
	x := fs.inode(h.(Ino))
	blocks := (size + BlockSize - 1) / BlockSize
	fs.allocBlocks(x, 0, blocks) // fallocate
	x.size = size
	fs.markInodeDirty(x)
	return &ExtFile{fs: fs, x: x}
}

// Size returns the preallocated size.
func (f *ExtFile) Size() int64 { return f.x.size }

// PWrite writes p at off directly to the file's extents (block-aligned
// writes go straight through; unaligned ones read-modify-write).
func (f *ExtFile) PWrite(p []byte, off int64) (err error) {
	defer ioerr.Guard(&err)
	fs := f.fs
	if ferr := fs.writeGate(); ferr != nil {
		return ferr
	}
	if off%BlockSize == 0 && int64(len(p))%BlockSize == 0 {
		fs.writeExtents(f.x, p, off)
		return nil
	}
	// Read-modify-write the boundary blocks.
	start := off / BlockSize * BlockSize
	end := (off + int64(len(p)) + BlockSize - 1) / BlockSize * BlockSize
	buf := make([]byte, end-start)
	fs.readExtents(f.x, buf, start)
	copy(buf[off-start:], p)
	fs.writeExtents(f.x, buf, start)
	return nil
}

// PRead reads len(p) bytes at off.
func (f *ExtFile) PRead(p []byte, off int64) (err error) {
	defer ioerr.Guard(&err)
	f.fs.readExtents(f.x, p, off)
	return nil
}

// SubmitPWrite starts an asynchronous aligned write and returns a wait
// function reporting the outcome.
func (f *ExtFile) SubmitPWrite(p []byte, off int64) func() error {
	fs := f.fs
	if off%BlockSize != 0 || int64(len(p))%BlockSize != 0 {
		err := f.PWrite(p, off)
		return func() error { return err }
	}
	var submitErr error
	var waits []blockdev.Completion
	func() {
		defer ioerr.Guard(&submitErr)
		if ferr := fs.writeGate(); ferr != nil {
			submitErr = ferr
			return
		}
		// Issue per physical run.
		pos := int64(0)
		for pos < int64(len(p)) {
			blk := (off + pos) / BlockSize
			phys := fs.ensureBlock(f.x, blk)
			run := int64(1)
			for pos+run*BlockSize < int64(len(p)) {
				np := fs.ensureBlock(f.x, blk+run)
				if np != phys+run {
					break
				}
				run++
			}
			c := fs.dev.SubmitWrite(p[pos:pos+run*BlockSize], fs.blockAddr(phys))
			waits = append(waits, c)
			pos += run * BlockSize
		}
	}()
	return func() error {
		err := submitErr
		for _, c := range waits {
			if werr := fs.dev.Wait(c); werr != nil && err == nil {
				err = werr
				if fs.ioErr == nil {
					fs.ioErr = werr // sticky: the journal cannot trust the device
				}
			}
		}
		return err
	}
}

// Fsync commits the extfs journal on behalf of the file — this is the
// second journal of the double-journaling pathology (§2.3).
func (f *ExtFile) Fsync() (err error) {
	defer ioerr.Guard(&err)
	if ferr := f.fs.writeGate(); ferr != nil {
		return ferr
	}
	f.fs.devCheck(f.fs.dev.Flush())
	f.fs.commit()
	return nil
}

var _ vfs.FS = (*FS)(nil)
