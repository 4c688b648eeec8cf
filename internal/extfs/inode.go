package extfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"time"
)

// Inode table: fixed 512-byte on-disk inodes, eight per block. Up to 24
// extents are stored inline; larger files chain overflow blocks from the
// data area (a flattened extent tree).

const (
	inodeSize      = 512
	inodesPerBlock = BlockSize / inodeSize
	// 19 inline extents fill bytes 38..494 of the 512-byte inode; the
	// last 4 bytes hold a CRC over the rest so fsck and recovery can
	// tell a durable inode from a torn or corrupted one.
	inlineExtents = 19
	inodeCRCOff   = inodeSize - 4
	// overflow block: next pointer (8) + count (4) + extents (24 B
	// each) + trailing CRC (4).
	overflowExtents = (BlockSize - 12 - 4) / 24
	blockCRCOff     = BlockSize - 4
)

// sealBlock stamps the trailing CRC an overflow block carries.
func sealBlock(buf []byte) {
	binary.BigEndian.PutUint32(buf[blockCRCOff:], crc32.ChecksumIEEE(buf[:blockCRCOff]))
}

func blockSealed(buf []byte) bool {
	return crc32.ChecksumIEEE(buf[:blockCRCOff]) == binary.BigEndian.Uint32(buf[blockCRCOff:])
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
	b := make([]byte, inodeSize)
	b[0] = 1 // used
	if x.dir {
		b[1] = 1
	}
	binary.BigEndian.PutUint64(b[2:], uint64(x.size))
	binary.BigEndian.PutUint32(b[10:], uint32(x.nlink))
	binary.BigEndian.PutUint64(b[14:], uint64(x.mtime))
	binary.BigEndian.PutUint32(b[22:], uint32(x.group))
	n := len(x.extents)
	binary.BigEndian.PutUint32(b[26:], uint32(n))
	inline := n
	if inline > inlineExtents {
		inline = inlineExtents
	}
	off := 38
	for i := 0; i < inline; i++ {
		e := x.extents[i]
		binary.BigEndian.PutUint64(b[off:], uint64(e.logical))
		binary.BigEndian.PutUint64(b[off+8:], uint64(e.phys))
		binary.BigEndian.PutUint64(b[off+16:], uint64(e.count))
		off += 24
	}
	if n > inlineExtents {
		// Overflow chain pointer written at [30:38] by writeOverflow.
		ovb := fs.writeOverflow(x, x.extents[inlineExtents:])
		binary.BigEndian.PutUint64(b[30:], uint64(ovb))
	}
	binary.BigEndian.PutUint32(b[inodeCRCOff:], crc32.ChecksumIEEE(b[:inodeCRCOff]))
	return b
}

// writeOverflow persists an extent-overflow chain and returns the first
// block number. Any previous chain blocks are recycled first.
func (fs *FS) writeOverflow(x *xinode, exts []extent) int64 {
	for _, b := range x.overflow {
		fs.deferFree(b)
	}
	x.overflow = x.overflow[:0]
	first := int64(-1)
	var prevBuf []byte
	var prevAddr int64
	for len(exts) > 0 {
		n := len(exts)
		if n > overflowExtents {
			n = overflowExtents
		}
		blk, _ := fs.allocRun(fs.groupGoal(x), 1)
		buf := make([]byte, BlockSize)
		binary.BigEndian.PutUint64(buf[0:], ^uint64(0)) // next: none yet
		binary.BigEndian.PutUint32(buf[8:], uint32(n))
		off := 12
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint64(buf[off:], uint64(exts[i].logical))
			binary.BigEndian.PutUint64(buf[off+8:], uint64(exts[i].phys))
			binary.BigEndian.PutUint64(buf[off+16:], uint64(exts[i].count))
			off += 24
		}
		if first < 0 {
			first = blk
		}
		x.overflow = append(x.overflow, blk)
		if prevBuf != nil {
			binary.BigEndian.PutUint64(prevBuf[0:], uint64(blk))
			sealBlock(prevBuf)
			fs.devCheck(fs.dev.WriteAt(prevBuf, prevAddr))
		}
		prevBuf = buf
		prevAddr = fs.blockAddr(blk)
		exts = exts[n:]
	}
	if prevBuf != nil {
		sealBlock(prevBuf)
		fs.devCheck(fs.dev.WriteAt(prevBuf, prevAddr))
	}
	fs.env.Serialize(BlockSize)
	return first
}

// readInode loads ino from the inode table (cold-cache path). A torn or
// corrupted on-disk inode — bad CRC, out-of-range extents, a broken
// overflow chain — comes back as an error so recovery can drop it
// instead of decoding garbage.
func (fs *FS) readInode(ino Ino) (rx *xinode, err error) {
	defer func() {
		if r := recover(); r != nil {
			rx, err = nil, fmt.Errorf("extfs: malformed inode %d: %v", ino, r)
		}
	}()
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
	if crc32.ChecksumIEEE(b[:inodeCRCOff]) != binary.BigEndian.Uint32(b[inodeCRCOff:]) {
		return nil, fmt.Errorf("extfs: inode %d checksum mismatch", ino)
	}
	x := &xinode{ino: ino}
	x.dir = b[1] == 1
	x.size = int64(binary.BigEndian.Uint64(b[2:]))
	x.nlink = int(binary.BigEndian.Uint32(b[10:]))
	x.mtime = time.Duration(binary.BigEndian.Uint64(b[14:]))
	x.group = int(binary.BigEndian.Uint32(b[22:]))
	n := int(binary.BigEndian.Uint32(b[26:]))
	if n < 0 {
		return nil, fmt.Errorf("extfs: inode %d extent count %d", ino, n)
	}
	inline := n
	if inline > inlineExtents {
		inline = inlineExtents
	}
	eoff := 38
	for i := 0; i < inline; i++ {
		x.extents = append(x.extents, extent{
			logical: int64(binary.BigEndian.Uint64(b[eoff:])),
			phys:    int64(binary.BigEndian.Uint64(b[eoff+8:])),
			count:   int64(binary.BigEndian.Uint64(b[eoff+16:])),
		})
		eoff += 24
	}
	if n > inlineExtents {
		next := int64(binary.BigEndian.Uint64(b[30:]))
		remaining := n - inlineExtents
		for next >= 0 && uint64(next) != ^uint64(0) && remaining > 0 {
			if next >= fs.lay.dataBlocks {
				return nil, fmt.Errorf("extfs: inode %d overflow block %d out of range", ino, next)
			}
			x.overflow = append(x.overflow, next)
			ob := make([]byte, BlockSize)
			if rerr := fs.dev.ReadAt(ob, fs.blockAddr(next)); rerr != nil {
				return nil, fmt.Errorf("extfs: inode %d overflow block %d: %w", ino, next, rerr)
			}
			fs.env.Serialize(BlockSize)
			if !blockSealed(ob) {
				return nil, fmt.Errorf("extfs: inode %d overflow block %d checksum mismatch", ino, next)
			}
			cnt := int(binary.BigEndian.Uint32(ob[8:]))
			if cnt <= 0 || cnt > overflowExtents {
				return nil, fmt.Errorf("extfs: inode %d overflow block %d holds %d extents", ino, next, cnt)
			}
			ooff := 12
			for i := 0; i < cnt; i++ {
				x.extents = append(x.extents, extent{
					logical: int64(binary.BigEndian.Uint64(ob[ooff:])),
					phys:    int64(binary.BigEndian.Uint64(ob[ooff+8:])),
					count:   int64(binary.BigEndian.Uint64(ob[ooff+16:])),
				})
				ooff += 24
			}
			remaining -= cnt
			nv := binary.BigEndian.Uint64(ob[0:])
			if nv == ^uint64(0) {
				break
			}
			next = int64(nv)
		}
	}
	for _, e := range x.extents {
		if e.count <= 0 || e.phys < 0 || e.phys+e.count > fs.lay.dataBlocks || e.logical < 0 {
			return nil, fmt.Errorf("extfs: inode %d extent out of range: logical=%d phys=%d count=%d", ino, e.logical, e.phys, e.count)
		}
	}
	return x, nil
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
