package logfs

import (
	"encoding/binary"
	"sort"

	"betrfs/internal/blobfs"
	"betrfs/internal/ioerr"
	"betrfs/internal/vfs"
)

// vfs.FS operations beyond the shared core's. Handles are inode numbers.

// WriteBlocks writes a run of pages. New data appends to the log
// (out-of-place); overwrites of already-allocated blocks update in place —
// F2FS's IPU policy, which it selects for fsync-bound random overwrites to
// avoid node-block and cleaning amplification.
func (fs *FS) WriteBlocks(h vfs.Handle, blk int64, pgs []*vfs.Page, durable bool) (err error) {
	defer ioerr.Guard(&err)
	if ferr := fs.WriteGate(); ferr != nil {
		return ferr
	}
	n := fs.Node(h.(blobfs.Ino))
	// In-place-update path: every block already mapped.
	allMapped := true
	for i := range pgs {
		if _, ok := n.Blocks[blk+int64(i)]; !ok {
			allMapped = false
			break
		}
	}
	if allMapped {
		i := 0
		for i < len(pgs) {
			phys := n.Blocks[blk+int64(i)]
			run := 1
			for i+run < len(pgs) && n.Blocks[blk+int64(i+run)] == phys+int64(run) {
				run++
			}
			buf := make([]byte, run*BlockSize)
			for j := 0; j < run; j++ {
				copy(buf[j*BlockSize:], pgs[i+j].Data)
			}
			fs.DevCheck(fs.Dev.WriteAt(buf, fs.BlockAddr(phys)))
			i += run
		}
		return nil
	}
	head := headColdData
	if _, ok := n.Blocks[blk]; ok {
		head = headHotData // overwrite: hot data
	}
	i := 0
	for i < len(pgs) {
		// Allocate as long a consecutive run as the segment allows.
		first := fs.allocBlock(head)
		count := 1
		for i+count < len(pgs) {
			b := fs.allocBlock(head)
			if b != first+int64(count) {
				// Segment boundary: write what we have, restart run.
				fs.invalidate(b)
				fs.heads[head].next-- // give the block back
				break
			}
			count++
		}
		buf := make([]byte, count*BlockSize)
		for j := 0; j < count; j++ {
			l := blk + int64(i+j)
			if old, ok := n.Blocks[l]; ok {
				fs.invalidate(old)
			}
			copy(buf[j*BlockSize:], pgs[i+j].Data)
			n.Blocks[l] = first + int64(j)
			fs.blockOwner[first+int64(j)] = owner{ino: n.Ino, logical: l}
		}
		fs.DevCheck(fs.Dev.WriteAt(buf, fs.BlockAddr(first)))
		i += count
	}
	n.Dirty = true
	return nil
}

// Fsync writes every dirty node blob (the file's own, plus the parents
// whose directory content references it) and the NAT blocks covering
// them, then flushes — the F2FS fsync path, with the roll-forward scan
// replaced by direct NAT updates.
func (fs *FS) Fsync(h vfs.Handle) (err error) {
	defer ioerr.Guard(&err)
	if ferr := fs.WriteGate(); ferr != nil {
		return ferr
	}
	written := map[int64]bool{fs.natAddr(h.(blobfs.Ino)): true}
	for _, n := range fs.Dirty() {
		fs.writeNodeBlock(n)
		written[fs.natAddr(n.Ino)] = true
	}
	// Two-phase flush: node blobs must be durable before the NAT blocks
	// that point at them, or a crash between the two could leave a durable
	// NAT entry referencing a blob the device never persisted.
	fs.DevCheck(fs.Dev.Flush())
	addrs := make([]int64, 0, len(written))
	for addr := range written {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		fs.writeNATBlockAt(addr)
	}
	fs.writeSuperOnly()
	fs.DevCheck(fs.Dev.Flush())
	fs.releasePendingSegs()
	return nil
}

// writeNATBlockAt persists one NAT block by device address.
func (fs *FS) writeNATBlockAt(addr int64) {
	buf := make([]byte, BlockSize)
	fs.DevCheck(fs.Dev.ReadAt(buf, addr))
	fs.FillTable(buf, blobfs.Ino((addr-fs.natOff)/blobfs.LocSize))
	fs.DevCheck(fs.Dev.WriteAt(buf, addr))
}

// Maintain runs periodic checkpoints. No error return in the vfs.FS
// contract; failures latch the sticky abort.
func (fs *FS) Maintain() {
	var err error
	defer ioerr.Guard(&err)
	if fs.WriteGate() == nil && fs.Env.Now()-fs.lastCheckpoint >= checkpointInterval {
		fs.checkpoint()
	}
}

// checkpoint persists all dirty node blobs, the NAT, and the superblock.
func (fs *FS) checkpoint() {
	for _, n := range fs.Dirty() {
		fs.writeNodeBlock(n)
	}
	// Blob/NAT write barrier — see Fsync.
	fs.DevCheck(fs.Dev.Flush())
	fs.writeNAT()
	fs.releasePendingSegs()
	fs.lastCheckpoint = fs.Env.Now()
}

// --- NAT persistence ---------------------------------------------------------

// superMagic opens the logfs superblock.
const superMagic = 0xf2f5f2f5

func (fs *FS) natAddr(ino blobfs.Ino) int64 {
	return fs.natOff + int64(ino)*blobfs.LocSize/BlockSize*BlockSize
}

// writeSuperOnly refreshes the superblock (magic + inode allocator state).
func (fs *FS) writeSuperOnly() {
	sb := make([]byte, BlockSize)
	binary.BigEndian.PutUint32(sb, superMagic)
	binary.BigEndian.PutUint64(sb[4:], uint64(fs.NextIno))
	fs.DevCheck(fs.Dev.WriteAt(sb, 0))
}

// writeNAT persists all NAT blocks covering allocated inodes, plus the
// superblock, and flushes.
func (fs *FS) writeNAT() {
	fs.WriteTable(fs.natOff)
	fs.writeSuperOnly()
	fs.DevCheck(fs.Dev.Flush())
	fs.Env.Serialize(int(fs.NextIno) * blobfs.LocSize)
}

var _ vfs.FS = (*FS)(nil)
