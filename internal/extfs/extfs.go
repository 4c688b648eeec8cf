// Package extfs implements a simplified update-in-place journaling file
// system in the mold of ext4 and XFS. It is used two ways in this
// reproduction:
//
//   - as the baseline "ext4" and "xfs" file systems in the evaluation, and
//   - as the southbound substrate BetrFS v0.4 stacks on (§2.2, Figure 1),
//     via the low-level file API in lowlevel.go.
//
// The design is deliberately conventional: a static layout (superblock,
// journal, inode table, block bitmap, data blocks), goal-directed
// first-fit extent allocation within allocation groups, a JBD-style
// metadata journal in ordered mode (data reaches its in-place location
// before the transaction that references it commits), and periodic
// write-back of dirty metadata blocks. Everything is device-backed:
// dropping caches forces real reads of inode-table and directory blocks,
// which is what gives traversal workloads their cold-cache cost.
package extfs

import (
	"errors"
	"fmt"
	"time"

	"betrfs/internal/blockdev"
	"betrfs/internal/ioerr"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// BlockSize is the file-system block size.
const BlockSize = 4096

// Ino is an inode number.
type Ino int64

const rootIno Ino = 1

// Profile selects behavioural differences between the ext4-like and
// XFS-like flavors.
type Profile struct {
	Name string
	// HashedReaddir makes ReadDir return entries in name-hash order
	// (ext4 htree directories), decorrelating traversal order from
	// allocation order.
	HashedReaddir bool
	// CommitInterval is the journal commit period (ext4: 5 s).
	CommitInterval time.Duration
	// AllocGroups spreads top-level directories across allocation
	// groups (the Orlov/XFS-AG policy).
	AllocGroups int
}

// Ext4Profile mimics ext4 in its default data=ordered configuration.
func Ext4Profile() Profile {
	return Profile{Name: "ext4", HashedReaddir: true, CommitInterval: 5 * time.Second, AllocGroups: 16}
}

// XFSProfile mimics XFS: sorted directories, more allocation groups.
func XFSProfile() Profile {
	return Profile{Name: "xfs", HashedReaddir: false, CommitInterval: 30 * time.Second, AllocGroups: 32}
}

// layout is the static disk layout.
type layout struct {
	journalOff, journalLen int64
	itableOff, itableLen   int64
	dataOff, dataBlocks    int64
}

// FS is the extfs instance.
type FS struct {
	env  *sim.Env
	dev  blockdev.Device
	prof Profile
	lay  layout

	jnl *journal

	// Caches over device-backed state.
	inodes map[Ino]*xinode
	// itableDirty tracks inode-table blocks needing in-place write-back.
	itableDirty map[int64]bool

	bitmap   []uint64
	groupPtr []int64 // per-group next-allocation hints
	// pendingFree holds blocks freed since the last journal commit;
	// they become reusable only once the freeing records are durable.
	pendingFree []int64
	nextIno     Ino
	// erased inodes pending tombstone write-back.
	erased []Ino

	lastCommit time.Duration
	superGen   uint64 // superblock generation, bumped per writeSuper

	// ioErr is the sticky abort error (DESIGN.md §10): the first
	// persistent write/flush failure is recorded here and every later
	// mutating operation refuses with it, mirroring ext4's journal
	// abort. Reads keep working.
	ioErr error
}

// xinode is the in-memory inode cache entry.
type xinode struct {
	ino   Ino
	dir   bool
	size  int64
	nlink int
	mtime time.Duration
	// extents maps the file's logical blocks to physical block runs.
	extents []extent
	// children is the decoded directory content (dir inodes only).
	children       map[string]dirent
	childrenLoaded bool
	// overflow lists extent-overflow chain blocks owned by this inode.
	overflow  []int64
	dirty     bool
	group     int
	lastAlloc int64
}

type dirent struct {
	ino Ino
	dir bool
}

type extent struct {
	logical int64 // first logical block
	phys    int64 // first physical block (data-area relative)
	count   int64
}

// New formats a fresh extfs over dev.
func New(env *sim.Env, dev blockdev.Device, prof Profile) *FS {
	cap := dev.Size()
	lay := layout{}
	lay.journalOff = BlockSize
	lay.journalLen = cap / 64
	if lay.journalLen < 4<<20 {
		lay.journalLen = 4 << 20
	}
	if lay.journalLen > 1<<30 {
		lay.journalLen = 1 << 30
	}
	lay.itableOff = lay.journalOff + lay.journalLen
	lay.itableLen = cap / 64
	lay.dataOff = lay.itableOff + lay.itableLen
	lay.dataBlocks = (cap - lay.dataOff) / BlockSize

	fs := &FS{
		env:         env,
		dev:         dev,
		prof:        prof,
		lay:         lay,
		inodes:      make(map[Ino]*xinode),
		itableDirty: make(map[int64]bool),
		bitmap:      make([]uint64, (lay.dataBlocks+63)/64),
		groupPtr:    make([]int64, prof.AllocGroups),
		nextIno:     rootIno + 1,
	}
	for g := range fs.groupPtr {
		fs.groupPtr[g] = int64(g) * lay.dataBlocks / int64(prof.AllocGroups)
	}
	fs.jnl = newJournal(env, dev, lay.journalOff, lay.journalLen)
	root := &xinode{ino: rootIno, dir: true, nlink: 2, children: map[string]dirent{}, childrenLoaded: true}
	fs.inodes[rootIno] = root
	fs.markInodeDirty(root)
	fs.writeSuper()
	return fs
}

func (fs *FS) markInodeDirty(x *xinode) {
	x.dirty = true
	fs.itableDirty[int64(x.ino)/inodesPerBlock] = true
}

// inode returns the cached inode, reading its inode-table block on a
// miss. Read failures abort to the enclosing vfs-op boundary (Guard)
// rather than crashing: an unreadable inode block is a reachable media
// error, not a programmer bug.
func (fs *FS) inode(ino Ino) *xinode {
	if x, ok := fs.inodes[ino]; ok {
		return x
	}
	x, err := fs.readInode(ino)
	ioerr.Check(err)
	fs.inodes[ino] = x
	return x
}

// inodeIfPresent is the non-panicking variant used during recovery: it
// returns false when the inode is unknown or fails validation.
func (fs *FS) inodeIfPresent(ino Ino) (*xinode, bool) {
	if x, ok := fs.inodes[ino]; ok {
		return x, true
	}
	if !fs.inodeExists(ino) {
		return nil, false
	}
	x, err := fs.readInode(ino)
	if err != nil {
		return nil, false
	}
	fs.inodes[ino] = x
	return x, true
}

// DropCaches evicts clean cached metadata, forcing subsequent operations
// back to the device (used by cold-cache benchmarks).
func (fs *FS) DropCaches() {
	// No error return in the vfs.FS contract; device failures here are
	// recorded sticky by devCheck and surface on the next operation.
	var err error
	defer ioerr.Guard(&err)
	fs.commit()
	fs.writebackMeta()
	for ino, x := range fs.inodes {
		if ino == rootIno {
			x.childrenLoaded = false
			x.children = nil
			continue
		}
		if !x.dirty {
			delete(fs.inodes, ino)
		}
	}
}

// blockAddr converts a data-area block number to a device byte offset.
func (fs *FS) blockAddr(b int64) int64 { return fs.lay.dataOff + b*BlockSize }

// noSpace aborts the current operation with ErrNoSpace; Guard at the
// vfs-op boundary turns it into the error return. ENOSPC is recoverable
// (freeing blocks clears it) and never sticky.
func (fs *FS) noSpace() {
	panic(ioerr.Abort{Err: fmt.Errorf("extfs(%s): %w", fs.prof.Name, ioerr.ErrNoSpace)})
}

// devCheck aborts the current operation when a device command failed.
// Write and flush failures are sticky (journal abort): the FS refuses all
// later mutations with the same error, while reads keep being served.
func (fs *FS) devCheck(err error) {
	if err == nil {
		return
	}
	var de *ioerr.DeviceError
	if errors.As(err, &de) && de.Op != "read" && fs.ioErr == nil {
		fs.ioErr = err
	}
	ioerr.Check(err)
}

// writeGate refuses mutations after a sticky abort.
func (fs *FS) writeGate() error { return fs.ioErr }

var _ vfs.FS = (*FS)(nil)
