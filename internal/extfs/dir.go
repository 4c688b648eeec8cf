package extfs

import (
	"fmt"
	"sort"

	"betrfs/internal/codec"
)

// Directory content is stored in the directory inode's data blocks as a
// packed entry list; it is decoded into the in-memory children map on
// first access and rewritten wholesale on metadata write-back. ext4-style
// htree directories return entries in name-hash order, which decorrelates
// readdir order from inode/data allocation order — a major contributor to
// ext4's slow cold-cache grep in the paper's Table 1.

// loadDir decodes a directory's content from its data blocks. A
// malformed blob — torn write, corruption — resets the directory to
// empty rather than panicking; journal replay re-adds any entries whose
// records are still in the log.
func (fs *FS) loadDir(x *xinode) {
	if x.childrenLoaded {
		return
	}
	children := make(map[string]dirent)
	if x.size > 0 {
		// A failed read aborts here, before the directory counts as
		// loaded: the next lookup reads it again instead of finding it
		// empty.
		data := make([]byte, x.size)
		fs.readExtents(x, data, 0)
		fs.env.Serialize(len(data))
		if err := decodeDir(data, children); err != nil {
			children = make(map[string]dirent)
			fs.markInodeDirty(x)
		}
	}
	x.children, x.childrenLoaded = children, true
}

// A directory blob is, in codec fields, the entry count and then each
// entry's name behind a 16-bit length, inode number and directory flag.

func decodeDir(data []byte, out map[string]dirent) error {
	d := codec.NewDecoder(data)
	for n := d.U32(); n > 0 && d.Err() == nil; n-- {
		name := d.Take(int(d.U16()))
		ino := Ino(d.I64())
		dir := d.U8() == 1
		if d.Err() != nil {
			break
		}
		if len(name) == 0 || ino < rootIno {
			return fmt.Errorf("extfs: directory entry %q with inode %d", name, ino)
		}
		out[string(name)] = dirent{ino: ino, dir: dir}
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("extfs: malformed directory blob: %w", err)
	}
	return nil
}

// encodeDir encodes a directory's entries in name order.
func encodeDir(children map[string]dirent) []byte {
	names := make([]string, 0, len(children))
	for name := range children {
		names = append(names, name)
	}
	sort.Strings(names)
	size := 4
	for _, name := range names {
		size += 2 + len(name) + 9
	}
	e := codec.Encoder{Buf: make([]byte, 0, size)}
	e.U32(uint32(len(names)))
	for _, name := range names {
		d := children[name]
		e.U16(uint16(len(name)))
		e.String(name)
		e.I64(int64(d.ino))
		e.Bool(d.dir)
	}
	return e.Buf
}

// writeDir persists a directory's content into its data blocks.
func (fs *FS) writeDir(x *xinode) {
	data := encodeDir(x.children)
	fs.env.Serialize(len(data))
	// Resize the directory file and write the blocks.
	size := len(data)
	newBlocks := int64((size + BlockSize - 1) / BlockSize)
	oldBlocks := int64((x.size + BlockSize - 1) / BlockSize)
	if newBlocks < oldBlocks {
		fs.freeBlocksFrom(x, newBlocks)
	} else if newBlocks > oldBlocks {
		fs.allocBlocks(x, oldBlocks, newBlocks-oldBlocks)
	}
	x.size = int64(size)
	padded := make([]byte, newBlocks*BlockSize)
	copy(padded, data)
	fs.writeExtents(x, padded, 0)
}

// readExtents reads len(p) bytes of file content starting at byte offset
// off, merging physically contiguous runs into single device reads.
func (fs *FS) readExtents(x *xinode, p []byte, off int64) {
	pos := int64(0)
	for pos < int64(len(p)) {
		blk := (off + pos) / BlockSize
		bo := (off + pos) % BlockSize
		phys := x.physFor(blk)
		// Extend across physically contiguous blocks until the request
		// is satisfied or the physical run breaks.
		run := int64(1)
		for pos+run*BlockSize-bo < int64(len(p)) {
			np := x.physFor(blk + run)
			if phys < 0 || np != phys+run {
				break
			}
			run++
		}
		want := run*BlockSize - bo
		if rem := int64(len(p)) - pos; want > rem {
			want = rem
		}
		if phys < 0 {
			for i := int64(0); i < want; i++ {
				p[pos+i] = 0
			}
		} else {
			buf := make([]byte, ((bo+want)+BlockSize-1)/BlockSize*BlockSize)
			fs.devCheck(fs.dev.ReadAt(buf, fs.blockAddr(phys)))
			copy(p[pos:pos+want], buf[bo:])
		}
		pos += want
	}
}

// writeExtents writes block-aligned content p at byte offset off
// (off and len(p) must be multiples of BlockSize), merging contiguous
// physical runs into single device writes.
func (fs *FS) writeExtents(x *xinode, p []byte, off int64) {
	if off%BlockSize != 0 || int64(len(p))%BlockSize != 0 {
		panic(fmt.Sprintf("extfs: unaligned writeExtents off=%d len=%d", off, len(p)))
	}
	pos := int64(0)
	for pos < int64(len(p)) {
		blk := (off + pos) / BlockSize
		phys := fs.ensureBlock(x, blk)
		run := int64(1)
		for pos+run*BlockSize < int64(len(p)) {
			np := fs.ensureBlock(x, blk+run)
			if np != phys+run {
				break
			}
			run++
		}
		fs.devCheck(fs.dev.WriteAt(p[pos:pos+run*BlockSize], fs.blockAddr(phys)))
		pos += run * BlockSize
	}
}

// hashName is the deterministic name shuffle for htree readdir order.
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
