// Package cowfs implements a simplified copy-on-write file system in the
// mold of Btrfs and ZFS, the CoW baselines in the paper's evaluation.
//
// Nothing is ever overwritten in place: file data and metadata blobs go to
// freshly allocated blocks, and the previous versions are freed only after
// the transaction group (txg) that dereferences them commits — which is
// what makes the on-disk tree always consistent. An inode map (itself
// rewritten at each txg) locates every inode's current metadata blob. All
// data is checksummed on write and verified on read (Btrfs/ZFS
// end-to-end integrity). fsync writes an intent-log record (ZIL/log-tree)
// rather than forcing a full txg.
//
// The namespace, the metadata-blob format and the recovery scan are the
// shared core of internal/blobfs; this package is cowfs's allocation,
// commit and logging policy.
package cowfs

import (
	"fmt"
	"time"

	"betrfs/internal/blobfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/ioerr"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
	"betrfs/internal/wal"
)

// BlockSize is the file-system block size.
const BlockSize = blobfs.BlockSize

// Profile selects the Btrfs-ish or ZFS-ish flavor.
type Profile struct {
	Name string
	// TxgInterval is the transaction-group commit period.
	TxgInterval time.Duration
	// MetaAmplification is how many additional metadata tree blocks a
	// txg rewrites per dirtied inode (CoW path copying up the tree).
	MetaAmplification int
	// RecordBlocks aggregates file data into records of this many
	// blocks for allocation and checksumming (ZFS's 128 KiB recordsize
	// is 32; Btrfs extents behave closer to 4).
	RecordBlocks int
}

// BtrfsProfile mimics Btrfs defaults.
func BtrfsProfile() Profile {
	return Profile{Name: "btrfs", TxgInterval: 30 * time.Second, MetaAmplification: 3, RecordBlocks: 4}
}

// ZFSProfile mimics ZFS defaults.
func ZFSProfile() Profile {
	return Profile{Name: "zfs", TxgInterval: 5 * time.Second, MetaAmplification: 4, RecordBlocks: 32}
}

// FS is the cowfs instance. The embedded core holds the namespace and the
// inode map (its location table); cowfs allocates blobs and data in the
// data area after the uberblock, the imap slots and the intent log.
type FS struct {
	blobfs.Core
	prof Profile

	imapOff, imapLen int64
	zilOff, zilLen   int64
	dataBlocks       int64

	bitmap   []uint64
	rotor    int64
	deferred []int64 // blocks freed when the current txg commits

	zil *wal.Log

	lastTxg    time.Duration
	inTxg      bool
	generation uint64 // uberblock generation, bumped per txg commit
}

// New formats a cowfs over dev.
func New(env *sim.Env, dev blockdev.Device, prof Profile) *FS {
	capacity := dev.Size()
	fs := &FS{
		prof:    prof,
		imapOff: BlockSize,
		imapLen: capacity / 128,
	}
	fs.zilOff = fs.imapOff + fs.imapLen
	fs.zilLen = capacity / 128
	if fs.zilLen < 4<<20 {
		fs.zilLen = 4 << 20
	}
	dataOff := fs.zilOff + fs.zilLen
	fs.dataBlocks = (capacity - dataOff) / BlockSize
	fs.bitmap = make([]uint64, (fs.dataBlocks+63)/64)
	fs.zil = wal.New(env, blockdev.Region(dev, fs.zilOff, fs.zilLen), 1)
	// An inode map slot holds one location per inode (half the map: the
	// two slots alternate by generation).
	maxInos := blobfs.Ino(fs.imapLen / 2 / blobfs.LocSize)
	fs.Core = blobfs.New("cowfs", blobMagic, env, dev, dataOff, fs.dataBlocks, maxInos, policy{fs})
	return fs
}

// policy is cowfs's side of the shared core: removal defers frees to the
// next txg, a commit is a txg, every namespace mutation goes to the intent
// log (ZFS logs creates, removes, renames and setattr in the ZIL, so an
// fsync-then-crash recovers them), and every read verifies a checksum.
type policy struct{ *FS }

func (p policy) Free(b int64)           { p.deferFree(b) }
func (p policy) Commit()                { p.txgCommit() }
func (p policy) Logged(op blobfs.Op)    { p.logZil(zilRecord(op)) }
func (p policy) NameLookup(name string) { p.Env.Compare(len(name)) }
func (p policy) DataRead(n int) {
	p.Env.Checksum(n)
	p.Env.Memcpy(n)
}
func (p policy) BlobRead(raw, _ int, err error) {
	p.Env.Checksum(raw)
	if err == nil {
		p.Env.Serialize(raw)
	}
}

func (fs *FS) bitGet(b int64) bool { return fs.bitmap[b/64]&(1<<(uint(b)%64)) != 0 }
func (fs *FS) bitSet(b int64)      { fs.bitmap[b/64] |= 1 << (uint(b) % 64) }
func (fs *FS) bitClear(b int64)    { fs.bitmap[b/64] &^= 1 << (uint(b) % 64) }

// alloc finds want contiguous blocks with a forward rotor (CoW allocators
// sweep forward, which keeps fresh writes sequential and ages overwritten
// files). Fully allocated regions are skipped a word at a time.
func (fs *FS) alloc(want int64) (int64, int64) {
	total := fs.dataBlocks
	b := fs.rotor
	if b >= total {
		b = 0
	}
	wrapped := false
	for {
		nb := skipAllocatedWords(fs.bitmap, b, total)
		if nb >= total {
			if wrapped {
				ioerr.Check(fmt.Errorf("cowfs(%s): out of space: %w", fs.prof.Name, ioerr.ErrNoSpace))
			}
			wrapped = true
			// Space pressure: committing the txg releases the
			// deferred frees accumulated since the last commit.
			if !fs.inTxg && len(fs.deferred) > 0 {
				fs.txgCommit()
			}
			b = 0
			continue
		}
		b = nb
		run := int64(1)
		for run < want && b+run < total && !fs.bitGet(b+run) {
			run++
		}
		for i := int64(0); i < run; i++ {
			fs.bitSet(b + i)
		}
		fs.rotor = b + run
		return b, run
	}
}

// skipAllocatedFast advances b past fully allocated regions a word (64
// blocks) at a time, returning the next candidate at or after b.
func skipAllocatedWords(bitmap []uint64, b, total int64) int64 {
	for b < total {
		if b%64 == 0 {
			w := bitmap[b/64]
			if w == ^uint64(0) {
				b += 64
				continue
			}
		}
		if bitmap[b/64]&(1<<(uint(b)%64)) == 0 {
			return b
		}
		b++
	}
	return total
}

// deferFree queues b for release at the next txg commit. When the
// deferred pool grows past an eighth of the data area, a txg commits
// early so churn-heavy workloads cannot outrun space reclamation.
func (fs *FS) deferFree(b int64) {
	if b < 0 {
		return
	}
	fs.deferred = append(fs.deferred, b)
	if !fs.inTxg && int64(len(fs.deferred)) > fs.dataBlocks/8 {
		fs.txgCommit()
	}
}

// blobMagic opens every cowfs metadata blob.
const blobMagic = 0xc0b10b55

// writeBlob persists n's metadata copy-on-write and charges the tree-path
// amplification.
func (fs *FS) writeBlob(n *blobfs.Node) {
	blob, size := fs.Seal(n)
	if old := fs.Table[n.Ino]; old.First >= 0 {
		for i := 0; i < old.Count; i++ {
			fs.deferFree(old.First + int64(i))
		}
	}
	nBlocks := int64(len(blob) / BlockSize)
	first, run := fs.alloc(nBlocks)
	for run < nBlocks {
		// Rare fragmentation path: give the short run back and retry
		// for a contiguous region.
		for i := int64(0); i < run; i++ {
			fs.bitClear(first + i)
		}
		first, run = fs.alloc(nBlocks)
	}
	fs.DevCheck(fs.Dev.WriteAt(blob, fs.BlockAddr(first)))
	fs.Env.Serialize(size)
	fs.Env.Checksum(len(blob))
	// CoW path amplification: interior tree blocks rewritten.
	for i := 0; i < fs.prof.MetaAmplification; i++ {
		ab, _ := fs.alloc(1)
		fs.DevCheck(fs.Dev.WriteAt(make([]byte, BlockSize), fs.BlockAddr(ab)))
		fs.deferFree(ab) // superseded at the next rewrite; keep space bounded
		fs.Env.Checksum(BlockSize)
	}
	fs.Table[n.Ino] = blobfs.Loc{First: first, Count: int(nBlocks)}
	n.Dirty = false
}

var _ vfs.FS = (*FS)(nil)
