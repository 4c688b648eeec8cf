package extfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"betrfs/internal/codec"
)

// Inode table: fixed 512-byte on-disk inodes, eight per block. Up to 19
// extents are stored inline; larger files chain overflow blocks from the
// data area (a flattened extent tree).
//
// An inode is, in codec fields: the used flag, the directory flag, size,
// link count, mtime, allocation group, extent count, the first overflow
// block (zero when there is none) and up to 19 inline extents, then zero
// padding and a CRC over the rest in its last 4 bytes, so fsck and
// recovery can tell a durable inode from a torn or corrupted one. An
// overflow block is its successor (all ones ends the chain), its extent
// count and its extents, then padding and the same trailing CRC. An extent
// is its logical block, physical block and block count.

const (
	inodeSize      = 512
	inodesPerBlock = BlockSize / inodeSize
	inlineExtents  = 19
	// overflow block: next pointer (8) + count (4) + extents (24 B
	// each) + trailing CRC (4).
	overflowExtents = (BlockSize - 12 - 4) / 24
)

// seal zero-pads b to size-4 bytes and appends their CRC.
func seal(b []byte, size int) []byte {
	b = append(b, make([]byte, size-4-len(b))...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// sealed reports whether b's last 4 bytes are the CRC of the rest.
func sealed(b []byte) bool {
	end := len(b) - 4
	return crc32.ChecksumIEEE(b[:end]) == binary.BigEndian.Uint32(b[end:])
}

func putExtent(e *codec.Encoder, x extent) {
	e.I64(x.logical)
	e.I64(x.phys)
	e.I64(x.count)
}

func getExtent(d *codec.Decoder) extent {
	return extent{logical: d.I64(), phys: d.I64(), count: d.I64()}
}

// maxInodes is the inode table's capacity: one past the largest inode
// number it has a slot for.
func (fs *FS) maxInodes() Ino {
	return Ino(fs.lay.itableLen / BlockSize * inodesPerBlock)
}

// itableBlockAddr returns the device offset of the inode-table block
// containing ino.
func (fs *FS) itableBlockAddr(ino Ino) int64 {
	blk := int64(ino) / inodesPerBlock
	addr := fs.lay.itableOff + blk*BlockSize
	if addr+BlockSize > fs.lay.itableOff+fs.lay.itableLen {
		panic(fmt.Sprintf("extfs: inode %d beyond inode table", ino))
	}
	return addr
}

// encodeInode serializes x into a 512-byte blob (plus overflow blocks for
// long extent lists, which are written separately).
func (fs *FS) encodeInode(x *xinode) []byte {
	n := len(x.extents)
	first := int64(0)
	if n > inlineExtents {
		first = fs.writeOverflow(x, x.extents[inlineExtents:])
	}
	e := codec.Encoder{Buf: make([]byte, 0, inodeSize)}
	e.U8(1) // used
	e.Bool(x.dir)
	e.I64(x.size)
	e.U32(uint32(x.nlink))
	e.I64(int64(x.mtime))
	e.U32(uint32(x.group))
	e.U32(uint32(n))
	e.I64(first)
	for _, ext := range x.extents[:min(n, inlineExtents)] {
		putExtent(&e, ext)
	}
	return seal(e.Buf, inodeSize)
}

// overflowBlock encodes one sealed overflow block.
func overflowBlock(next int64, exts []extent) []byte {
	e := codec.Encoder{Buf: make([]byte, 0, BlockSize)}
	e.I64(next)
	e.U32(uint32(len(exts)))
	for _, ext := range exts {
		putExtent(&e, ext)
	}
	return seal(e.Buf, BlockSize)
}

// writeOverflow persists an extent-overflow chain and returns the first
// block number. Any previous chain blocks are recycled first. Each block
// is written once its successor is allocated.
func (fs *FS) writeOverflow(x *xinode, exts []extent) int64 {
	for _, b := range x.overflow {
		fs.deferFree(b)
	}
	x.overflow = x.overflow[:0]
	var prev []extent // the extents of the block awaiting its successor
	var prevAddr int64
	for len(exts) > 0 {
		n := min(len(exts), overflowExtents)
		blk, _ := fs.allocRun(fs.groupGoal(x), 1)
		x.overflow = append(x.overflow, blk)
		if prev != nil {
			fs.devCheck(fs.dev.WriteAt(overflowBlock(blk, prev), prevAddr))
		}
		prev, prevAddr = exts[:n], fs.blockAddr(blk)
		exts = exts[n:]
	}
	if prev != nil {
		fs.devCheck(fs.dev.WriteAt(overflowBlock(-1, prev), prevAddr))
	}
	fs.env.Serialize(BlockSize)
	return x.overflow[0]
}

// readInode loads ino from the inode table (cold-cache path). A torn or
// corrupted on-disk inode — bad CRC, out-of-range extents, a broken
// overflow chain — comes back as an error so recovery can drop it
// instead of decoding garbage. An overflow chain must visit each block
// once and hold no more extents than the inode counts, so the number of
// blocks read is bounded by the data area, not by the count.
func (fs *FS) readInode(ino Ino) (*xinode, error) {
	if ino < rootIno || ino >= fs.maxInodes() {
		return nil, fmt.Errorf("extfs: inode %d outside the inode table", ino)
	}
	buf := make([]byte, BlockSize)
	if rerr := fs.dev.ReadAt(buf, fs.itableBlockAddr(ino)); rerr != nil {
		return nil, fmt.Errorf("extfs: inode %d table block: %w", ino, rerr)
	}
	off := (int64(ino) % inodesPerBlock) * inodeSize
	b := buf[off : off+inodeSize]
	fs.env.Serialize(inodeSize)
	if b[0] != 1 {
		return nil, fmt.Errorf("extfs: reading unused inode %d", ino)
	}
	if !sealed(b) {
		return nil, fmt.Errorf("extfs: inode %d checksum mismatch", ino)
	}
	d := codec.NewDecoder(b[1:])
	x := &xinode{ino: ino, dir: d.U8() == 1, size: d.I64(), nlink: int(d.U32()), mtime: time.Duration(d.I64()), group: int(d.U32())}
	n := int(d.U32())
	next := d.I64()
	for i := 0; i < min(n, inlineExtents); i++ {
		x.extents = append(x.extents, getExtent(&d))
	}
	var visited map[int64]bool
	for remaining := n - inlineExtents; remaining > 0 && next >= 0; {
		if next >= fs.lay.dataBlocks {
			return nil, fmt.Errorf("extfs: inode %d overflow block %d out of range", ino, next)
		}
		if visited[next] {
			return nil, fmt.Errorf("extfs: inode %d overflow chain revisits block %d", ino, next)
		}
		if visited == nil {
			visited = make(map[int64]bool)
		}
		visited[next] = true
		x.overflow = append(x.overflow, next)
		ob := make([]byte, BlockSize)
		if rerr := fs.dev.ReadAt(ob, fs.blockAddr(next)); rerr != nil {
			return nil, fmt.Errorf("extfs: inode %d overflow block %d: %w", ino, next, rerr)
		}
		fs.env.Serialize(BlockSize)
		if !sealed(ob) {
			return nil, fmt.Errorf("extfs: inode %d overflow block %d checksum mismatch", ino, next)
		}
		od := codec.NewDecoder(ob)
		succ, cnt := od.I64(), int(od.U32())
		if cnt <= 0 || cnt > overflowExtents || cnt > remaining {
			return nil, fmt.Errorf("extfs: inode %d overflow block %d holds %d extents, %d expected at most", ino, next, cnt, remaining)
		}
		for i := 0; i < cnt; i++ {
			x.extents = append(x.extents, getExtent(&od))
		}
		remaining -= cnt
		next = succ
	}
	for _, e := range x.extents {
		if !fs.extentInRange(e) {
			return nil, fmt.Errorf("extfs: inode %d extent out of range: logical=%d phys=%d count=%d", ino, e.logical, e.phys, e.count)
		}
	}
	return x, nil
}

// extentInRange reports whether e maps a non-empty run of non-negative
// logical blocks into the data area, with no sum that can wrap.
func (fs *FS) extentInRange(e extent) bool {
	return e.count > 0 && e.phys >= 0 && e.count <= fs.lay.dataBlocks-e.phys && e.logical >= 0
}

// writebackMeta writes all dirty inode-table blocks (and dirty directory
// content) in place, then the journal can be reclaimed.
func (fs *FS) writebackMeta() {
	// Iterate inodes in ascending number order, never map order: directory
	// write-back allocates blocks and the table pass seeks the device, so
	// iteration order is charge-visible and map order would make simulated
	// timings vary run to run.
	sorted := make([]Ino, 0, len(fs.inodes))
	for ino := range fs.inodes {
		sorted = append(sorted, ino)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Flush dirty directory content first: it allocates blocks and can
	// dirty more inodes.
	for _, ino := range sorted {
		if x := fs.inodes[ino]; x.dirty && x.dir && x.childrenLoaded {
			fs.writeDir(x)
		}
	}
	blocks := make(map[int64][]Ino)
	for _, ino := range sorted {
		if fs.inodes[ino].dirty {
			blk := int64(ino) / inodesPerBlock
			blocks[blk] = append(blocks[blk], ino)
		}
	}
	tombstones := make(map[int64][]Ino)
	for _, ino := range fs.erased {
		blk := int64(ino) / inodesPerBlock
		tombstones[blk] = append(tombstones[blk], ino)
		if _, ok := blocks[blk]; !ok {
			blocks[blk] = nil
		}
	}
	fs.erased = fs.erased[:0]
	blkOrder := make([]int64, 0, len(blocks))
	for blk := range blocks {
		blkOrder = append(blkOrder, blk)
	}
	sort.Slice(blkOrder, func(i, j int) bool { return blkOrder[i] < blkOrder[j] })
	for _, blk := range blkOrder {
		inos := blocks[blk]
		// Read-modify-write the table block with all its dirty inodes.
		addr := fs.lay.itableOff + blk*BlockSize
		buf := make([]byte, BlockSize)
		fs.devCheck(fs.dev.ReadAt(buf, addr))
		for _, ino := range inos {
			x := fs.inodes[ino]
			blob := fs.encodeInode(x)
			copy(buf[(int64(ino)%inodesPerBlock)*inodeSize:], blob)
			x.dirty = false
			fs.env.Serialize(inodeSize)
		}
		for _, ino := range tombstones[blk] {
			zero := make([]byte, inodeSize)
			copy(buf[(int64(ino)%inodesPerBlock)*inodeSize:], zero)
		}
		fs.devCheck(fs.dev.WriteAt(buf, addr))
		delete(fs.itableDirty, blk)
	}
}

// eraseInode marks ino unused on disk (lazy: zero the used flag at next
// table write-back by writing an empty blob now in memory).
func (fs *FS) eraseInode(ino Ino) {
	blk := int64(ino) / inodesPerBlock
	fs.itableDirty[blk] = true
	// Write the tombstone directly: read-modify-write of the block is
	// deferred to writebackMeta via the erased set.
	fs.erased = append(fs.erased, ino)
}
