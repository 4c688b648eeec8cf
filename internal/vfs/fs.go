// Package vfs implements a user-space analog of the Linux VFS: path
// resolution over a dentry cache, an inode cache with dirty-inode
// write-back, a page cache with read-ahead and write-back watermarks, and
// a file-descriptor API that workloads program against.
//
// Every file system in this repository (BetrFS, extfs, logfs, cowfs)
// implements the FS interface below and is driven through a Mount. The
// VFS behaviours the paper modifies live here: opportunistic population of
// the dentry/inode caches from readdir (§4 DC), coherent nlink counters
// (§4), deferred inode write-back (§3.3 CL), blind sub-page writes (§2.1),
// page pinning with copy-on-write for page sharing (§6), and sequential
// read detection feeding FS-level read-ahead (§3.2).
package vfs

import (
	"errors"
	"sync/atomic"
	"time"

	"betrfs/internal/ioerr"
)

// PageSize is the VFS page and file-block size.
const PageSize = 4096

// The longest name a mount creates, in bytes: one path component
// (NAME_MAX) and a whole path (PATH_MAX), as on Linux.
const (
	NameMax = 255
	PathMax = 4096
)

// Common error values. They mirror the POSIX errors the workloads expect.
var (
	ErrNotExist = errors.New("vfs: no such file or directory")
	ErrExist    = errors.New("vfs: file exists")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotEmpty = errors.New("vfs: directory not empty")
	// ErrNameTooLong is ENAMETOOLONG: a create, mkdir or rename named a
	// component longer than NameMax or a path longer than PathMax.
	ErrNameTooLong = errors.New("vfs: file name too long")
	// ErrNotSupported is EOPNOTSUPP: the mounted FS does not implement the
	// requested optional interface (e.g. Scrubber on the simulated
	// baselines).
	ErrNotSupported = errors.New("vfs: operation not supported")
)

// Errno-style I/O errors, aliased from ioerr so workloads can classify
// against either package (DESIGN.md §10).
var (
	// ErrIO is EIO: a device command failed beneath the file system.
	ErrIO = ioerr.ErrIO
	// ErrNoSpace is ENOSPC: the FS allocator is exhausted. Deleting
	// files makes writes succeed again; it never degrades the mount.
	ErrNoSpace = ioerr.ErrNoSpace
	// ErrReadOnly is EROFS: the mount degraded to read-only after a
	// persistent write failure (errors=remount-ro).
	ErrReadOnly = ioerr.ErrReadOnly
)

// Handle is a file-system-specific node reference: BetrFS uses full paths,
// the inode-based file systems use inode numbers.
type Handle interface{}

// ScrubStats summarizes one online scrub (Mount.Scrub) pass.
type ScrubStats struct {
	Checked      int64 // on-disk structures verified
	Bad          int64 // structures whose verification failed
	Repaired     int64 // bad structures rewritten to fresh space (repair mode)
	Unrepairable int64 // bad structures with no recoverable copy
}

// Scrubber is the optional FS interface behind Mount.Scrub: verify every
// on-disk structure's checksums and, with repair set, relocate the bad
// ones that still have a recoverable copy (DESIGN.md §10.6). File systems
// that do not implement it surface ErrNotSupported from Mount.Scrub.
type Scrubber interface {
	Scrub(repair bool) (ScrubStats, error)
}

// Attr is the stat metadata of a file or directory.
type Attr struct {
	Dir   bool
	Size  int64
	Nlink int
	Mtime time.Duration
}

// DirEntry is one readdir result. FS implementations that support
// opportunistic inode instantiation (§4) fill Handle and Attr so the VFS
// can populate its caches without further lookups; others leave Handle
// nil.
type DirEntry struct {
	Name   string
	Dir    bool
	Handle Handle
	Attr   Attr
	Known  bool // Handle/Attr are valid
}

// Page is a page-cache page. FS implementations may pin pages (page
// sharing, §6): while pinned the contents are immutable and the VFS
// copies-on-write if the application writes again.
//
// A page's frame (the struct and its Data) has one atomic reference word:
// 1 while the page cache holds the page, plus 2 per FS pin. Whichever side
// lets go last — the cache dropping the page or the FS's final Release —
// returns the frame to its mount's free list; a page built outside a mount
// has no free list and is left to the garbage collector.
type Page struct {
	Data  []byte
	Dirty bool

	ref    atomic.Int32
	frames *framePool // nil for pages built outside a mount

	ino *inode
	blk int64
	// dirtiedAt is when the page last transitioned clean->dirty, for
	// dirty_expire-style write-back.
	dirtiedAt time.Duration
	// prev, next and list link the page into the mount's clean LRU or
	// dirty list (list is nil while the page is on neither).
	prev, next *Page
	list       *pageList
}

// Pin marks the page immutable-by-VFS; Release undoes it.
func (p *Page) Pin()     { p.ref.Add(2) }
func (p *Page) Release() { p.unref(2) }

// Pinned reports whether any FS-side reference holds the page.
func (p *Page) Pinned() bool { return p.ref.Load() >= 2 }

// unref drops n from the reference word and frees the frame when nothing
// holds it any more.
func (p *Page) unref(n int32) {
	switch r := p.ref.Add(-n); {
	case r == 0:
		if p.frames != nil {
			p.frames.put(p)
		}
	case r < 0:
		panic("vfs: page released more often than it was held")
	}
}

// FS is the interface a concrete file system exposes to the VFS.
type FS interface {
	// Root returns the handle of the root directory.
	Root() Handle
	// Lookup resolves name within parent.
	Lookup(parent Handle, name string) (Handle, Attr, error)
	// Create makes a file or directory. The returned attr is the
	// initial metadata.
	Create(parent Handle, name string, dir bool) (Handle, Attr, error)
	// Remove unlinks a file or removes an (empty, FS-checked) directory.
	Remove(parent Handle, name string, h Handle, dir bool) error
	// Rename moves h from oldParent/oldName to newParent/newName,
	// returning the (possibly new) handle.
	Rename(oldParent Handle, oldName string, h Handle, newParent Handle, newName string) (Handle, error)
	// ReadDir lists parent's direct children.
	ReadDir(h Handle) ([]DirEntry, error)
	// WriteAttr persists inode metadata (dirty-inode write-back).
	WriteAttr(h Handle, a Attr) error
	// ReadBlocks fills pages [blk, blk+len(pages)) of the file; seq
	// hints that the reads are part of a sequential run. On error the
	// page contents are undefined.
	ReadBlocks(h Handle, blk int64, pages []*Page, seq bool) error
	// WriteBlocks persists a contiguous run of file pages starting at
	// blk (write-back coalesces adjacent dirty pages into one call, as
	// bio merging does). durable marks an fsync-driven write-back. The
	// FS may Pin pages instead of copying them (page sharing).
	WriteBlocks(h Handle, blk int64, pgs []*Page, durable bool) error
	// WritePartial is a blind sub-page write (off, data within one
	// block) without a prior read; only WODs support it.
	WritePartial(h Handle, blk int64, off int, data []byte, durable bool) error
	// SupportsBlindWrites reports whether WritePartial is available.
	SupportsBlindWrites() bool
	// TruncateBlocks drops blocks at index >= fromBlk.
	TruncateBlocks(h Handle, fromBlk int64) error
	// Fsync makes h's previously written data and metadata durable.
	Fsync(h Handle) error
	// Sync makes the whole file system durable.
	Sync() error
	// Maintain gives the FS a chance to run background work
	// (checkpoints, segment cleaning, transaction-group commits); the
	// VFS calls it periodically from operation paths.
	Maintain()
	// DropCaches evicts the FS's internal clean caches (node caches,
	// metadata caches), used by cold-cache benchmarks.
	DropCaches()
}
