package logfs

import (
	"encoding/binary"
	"fmt"

	"betrfs/internal/blobfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/sim"
)

// Recover mounts an existing logfs from its superblock, NAT, and node
// blobs: the NAT locates every inode's latest durable node blob (fsync
// updates its NAT block directly, which stands in for F2FS's roll-forward
// scan), and segment-validity state is rebuilt from the recovered block
// maps.
func Recover(env *sim.Env, dev blockdev.Device) (*FS, error) {
	fs := New(env, dev)
	sb := make([]byte, BlockSize)
	if rerr := dev.ReadAt(sb, 0); rerr != nil {
		return nil, fmt.Errorf("logfs: superblock unreadable: %w", rerr)
	}
	if binary.BigEndian.Uint32(sb) != superMagic {
		return nil, fmt.Errorf("logfs: no superblock")
	}
	fs.NextIno = blobfs.Ino(binary.BigEndian.Uint64(sb[4:]))
	// A torn superblock write can only inflate NextIno (the mixed
	// big-endian value is never below the last durable one); clamp it to
	// what the NAT region can address so the scan stays bounded.
	fs.NextIno = min(fs.NextIno, fs.MaxInos())
	if err := fs.Load(fs.natOff, fs.claim); err != nil {
		return nil, err
	}
	fs.Prune()
	// Segments with any valid blocks are dirty; fully dead ones are free.
	fs.freeSegs = 0
	for s := int64(0); s < fs.segments; s++ {
		if fs.segValid[s] > 0 {
			fs.segState[s] = 2
		} else {
			fs.segState[s] = 0
			fs.freeSegs++
		}
	}
	return fs, nil
}

// claim counts a recovered inode's node blob and data blocks as valid in
// their segments.
func (fs *FS) claim(n *blobfs.Node, loc blobfs.Loc) {
	for i := 0; i < loc.Count; i++ {
		b := loc.First + int64(i)
		fs.segValid[b/SegmentBlocks]++
		fs.blockOwner[b] = owner{ino: n.Ino, logical: -1}
	}
	for logical, b := range n.Blocks {
		fs.segValid[b/SegmentBlocks]++
		fs.blockOwner[b] = owner{ino: n.Ino, logical: logical}
	}
}
