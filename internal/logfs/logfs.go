// Package logfs implements a simplified log-structured file system in the
// mold of F2FS (Lee et al., FAST '15), the flash-native baseline in the
// paper's evaluation.
//
// All writes — file data and node blocks (inodes + block maps + directory
// content) — append to active log segments. Multi-head logging separates
// data and node writes into different segments. A node address table
// (NAT) in a fixed region maps inode numbers to the current node-block
// address, so node blocks can move during segment cleaning without
// rewriting their parents. Checkpoints persist the NAT and segment
// information; fsync appends the affected node block and a roll-forward
// record. When free segments run low, greedy cleaning migrates the valid
// blocks of the dirtiest victim segments to the active logs.
//
// The namespace, the node-blob format and the recovery scan are the
// shared core of internal/blobfs; this package is logfs's placement,
// cleaning and commit policy.
package logfs

import (
	"fmt"
	"sort"
	"time"

	"betrfs/internal/blobfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/ioerr"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
)

// BlockSize is the file-system block size.
const BlockSize = blobfs.BlockSize

// SegmentBlocks is the number of blocks per log segment (2 MiB).
const SegmentBlocks = 512

// checkpointInterval is the period of Maintain's checkpoints.
const checkpointInterval = 30 * time.Second

// segPendingFree marks a fully dead segment awaiting the next NAT
// persist before it can be reallocated.
const segPendingFree = 3

// logHead identifies one of the multi-head logs.
type logHead int

const (
	headHotData logHead = iota
	headColdData
	headNode
	numHeads
)

// FS is the logfs instance. The embedded core holds the namespace and the
// NAT (its location table); logfs places blocks in the main area of
// segments that starts after the superblock and the NAT region.
type FS struct {
	blobfs.Core

	natOff   int64
	mainOff  int64
	segments int64

	// Per-segment valid-block counts (SIT) and allocation state.
	segValid []int
	segState []byte // 0 free, 1 active, 2 dirty/full, 3 pending free
	heads    [numHeads]struct {
		seg  int64
		next int64 // next block within segment
	}
	freeSegs int64
	// pendingSegs counts fully dead segments that cannot be reused until
	// the next NAT persist (see invalidate).
	pendingSegs int64

	// blockOwner tracks, for each main-area block, what it currently
	// holds (for cleaning): the owning inode and logical index, or a
	// node block. Cleared when invalidated.
	blockOwner map[int64]owner

	lastCheckpoint time.Duration
	// cleaning guards against re-entering the cleaner from the
	// allocations the cleaner itself performs.
	cleaning bool

	mCleaned *metrics.Counter // logfs.segment.cleaned
}

type owner struct {
	ino     blobfs.Ino
	logical int64 // -1 for a node block
}

// New formats a logfs over dev.
func New(env *sim.Env, dev blockdev.Device) *FS {
	capacity := dev.Size()
	natLen := capacity / 128
	fs := &FS{
		natOff:     BlockSize,
		mainOff:    BlockSize + natLen,
		blockOwner: make(map[int64]owner),
	}
	fs.segments = (capacity - fs.mainOff) / (SegmentBlocks * BlockSize)
	maxInos := blobfs.Ino(natLen / blobfs.LocSize)
	fs.Core = blobfs.New("logfs", blobMagic, env, dev, fs.mainOff, fs.segments*SegmentBlocks, maxInos, policy{fs})
	fs.segValid = make([]int, fs.segments)
	fs.segState = make([]byte, fs.segments)
	fs.freeSegs = fs.segments
	for h := logHead(0); h < numHeads; h++ {
		fs.heads[h].seg = -1
	}
	reg := env.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	fs.mCleaned = reg.Counter("logfs.segment.cleaned")
	return fs
}

// policy is logfs's side of the shared core: removal invalidates blocks,
// a commit is a checkpoint, nothing is logged, and a blob read charges
// decoding what it decoded.
type policy struct{ *FS }

func (p policy) Free(b int64)           { p.invalidate(b) }
func (p policy) Commit()                { p.checkpoint() }
func (p policy) Logged(blobfs.Op)       {}
func (p policy) NameLookup(name string) { p.Env.Compare(len(name)) }
func (p policy) DataRead(n int)         { p.Env.Memcpy(n) }
func (p policy) BlobRead(_, payload int, err error) {
	if err == nil {
		p.Env.Serialize(payload)
	}
}

// allocBlock appends one block to the given log head, cleaning if needed.
func (fs *FS) allocBlock(h logHead) int64 {
	hd := &fs.heads[h]
	if hd.seg < 0 || hd.next >= SegmentBlocks {
		if hd.seg >= 0 {
			fs.segState[hd.seg] = 2
		}
		fs.maybeClean()
		seg := fs.findFreeSegment()
		fs.segState[seg] = 1
		fs.freeSegs--
		hd.seg = seg
		hd.next = 0
	}
	b := hd.seg*SegmentBlocks + hd.next
	hd.next++
	fs.segValid[hd.seg]++
	return b
}

func (fs *FS) findFreeSegment() int64 {
	for s := int64(0); s < fs.segments; s++ {
		if fs.segState[s] == 0 {
			return s
		}
	}
	// Space pressure: persisting the NAT releases the pending-free
	// segments parked since the last checkpoint. Flush first so every
	// blob the in-memory NAT references is durable before the NAT is.
	if fs.pendingSegs > 0 {
		fs.DevCheck(fs.Dev.Flush())
		fs.writeNAT()
		fs.releasePendingSegs()
		for s := int64(0); s < fs.segments; s++ {
			if fs.segState[s] == 0 {
				return s
			}
		}
	}
	// Out of segments even after cleaning and releasing pending frees:
	// a space condition the caller must see, not a bug.
	ioerr.Check(fmt.Errorf("logfs: no free segments: %w", ioerr.ErrNoSpace))
	panic("unreachable")
}

// invalidate marks a block dead in its segment. A fully dead segment is
// not reusable immediately: the durable NAT may still reference blobs in
// it, so it parks in the pending-free state until the next NAT persist
// (F2FS's rule that checkpointed segments are not reused before the
// following checkpoint).
func (fs *FS) invalidate(b int64) {
	if b < 0 {
		return
	}
	seg := b / SegmentBlocks
	if fs.segValid[seg] > 0 {
		fs.segValid[seg]--
	}
	delete(fs.blockOwner, b)
	if fs.segValid[seg] == 0 && fs.segState[seg] == 2 {
		fs.segState[seg] = segPendingFree
		fs.pendingSegs++
	}
}

// releasePendingSegs returns pending-free segments to the allocatable
// pool. Call only after the NAT and superblock have been flushed — at
// that point no durable metadata can reference their old contents.
// Each released segment is also handed to the device as a TRIM, so the
// FTL stops migrating its dead blocks; the device keeps discards
// crash-revertible until the next barrier, which covers the window where
// the just-written NAT is itself still volatile.
func (fs *FS) releasePendingSegs() {
	if fs.pendingSegs == 0 {
		return
	}
	for s := int64(0); s < fs.segments; s++ {
		if fs.segState[s] == segPendingFree {
			fs.segState[s] = 0
			fs.freeSegs++
			// A TRIM is advice: if it fails, the FTL merely keeps
			// migrating the dead blocks.
			_ = fs.Dev.Discard(fs.BlockAddr(s*SegmentBlocks), SegmentBlocks*BlockSize)
		}
	}
	fs.pendingSegs = 0
}

// maybeClean runs greedy segment cleaning when free space is low.
func (fs *FS) maybeClean() {
	threshold := fs.segments / 10
	if threshold < 4 {
		threshold = 4
	}
	if fs.cleaning || fs.freeSegs > threshold {
		return
	}
	fs.cleaning = true
	defer func() { fs.cleaning = false }()
	// Greedy victim selection: fullest-dead segments first.
	type victim struct {
		seg   int64
		valid int
	}
	var vs []victim
	for s := int64(0); s < fs.segments; s++ {
		if fs.segState[s] == 2 {
			vs = append(vs, victim{s, fs.segValid[s]})
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].valid < vs[j].valid })
	cleaned := 0
	for _, v := range vs {
		if cleaned >= 16 || fs.freeSegs > fs.segments/5 {
			break
		}
		fs.cleanSegment(v.seg)
		cleaned++
	}
}

// cleanSegment migrates a victim's valid blocks to the active logs.
func (fs *FS) cleanSegment(seg int64) {
	fs.mCleaned.Inc()
	base := seg * SegmentBlocks
	buf := make([]byte, BlockSize)
	for i := int64(0); i < SegmentBlocks; i++ {
		b := base + i
		own, ok := fs.blockOwner[b]
		if !ok {
			continue
		}
		if own.logical < 0 {
			// Node blob: rewrite the whole blob contiguously at the
			// node head (this invalidates all of its blocks,
			// including any others in this victim).
			fs.writeNodeBlock(fs.Node(own.ino))
			continue
		}
		// Data block: migrate to the cold data log and repoint the
		// owning node's block map (loading the node if cold).
		fs.DevCheck(fs.Dev.ReadAt(buf, fs.BlockAddr(b)))
		nb := fs.allocBlock(headColdData)
		n := fs.Node(own.ino)
		n.Blocks[own.logical] = nb
		n.Dirty = true
		fs.DevCheck(fs.Dev.WriteAt(buf, fs.BlockAddr(nb)))
		fs.blockOwner[nb] = own
		fs.invalidate(b)
	}
	if fs.segValid[seg] == 0 && fs.segState[seg] == 2 {
		fs.segState[seg] = segPendingFree
		fs.pendingSegs++
	}
}

// allocNodeRun allocates n contiguous blocks at the node head, skipping to
// a fresh segment when the current one cannot fit the blob.
func (fs *FS) allocNodeRun(n int) int64 {
	hd := &fs.heads[headNode]
	if hd.seg >= 0 && SegmentBlocks-hd.next < int64(n) {
		// Waste the tail so the blob stays contiguous.
		fs.segState[hd.seg] = 2
		if fs.segValid[hd.seg] == 0 {
			fs.segState[hd.seg] = 0
			fs.freeSegs++
		}
		hd.seg = -1
	}
	first := fs.allocBlock(headNode)
	for i := 1; i < n; i++ {
		fs.allocBlock(headNode)
	}
	return first
}

// blobMagic opens every logfs node blob.
const blobMagic = 0x1f2b10b5

// writeNodeBlock persists n's node blob (attributes, block map, directory
// content) contiguously at the node head, updating the NAT.
func (fs *FS) writeNodeBlock(n *blobfs.Node) {
	blob, size := fs.Seal(n)
	// Invalidate the old blob.
	if old := fs.Table[n.Ino]; old.First >= 0 {
		for i := 0; i < old.Count; i++ {
			fs.invalidate(old.First + int64(i))
		}
	}
	nBlocks := len(blob) / BlockSize
	first := fs.allocNodeRun(nBlocks)
	fs.DevCheck(fs.Dev.WriteAt(blob, fs.BlockAddr(first)))
	for i := 0; i < nBlocks; i++ {
		fs.blockOwner[first+int64(i)] = owner{ino: n.Ino, logical: -1}
	}
	fs.Table[n.Ino] = blobfs.Loc{First: first, Count: nBlocks}
	n.Dirty = false
	fs.Env.Serialize(size)
}
