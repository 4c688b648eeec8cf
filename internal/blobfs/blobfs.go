// Package blobfs is the inode-blob core of the out-of-place baselines:
// logfs (F2FS) and cowfs (Btrfs, ZFS). Both hold every inode in memory as
// a Node — attributes, block map and directory entries — and persist it as
// one blob of contiguous blocks, which a location table (logfs's NAT,
// cowfs's inode map) finds by inode number. This package owns what they
// share: the namespace operations, the sealed-blob format and node codec,
// the location-table entry, the cold-read path, the recovery scan and the
// sticky device-error latch.
//
// Each file system keeps its own Policy: where blocks go and how they are
// freed, when dirty inodes commit, whether mutations are logged, and what
// each operation costs. The core never charges the simulated clock; it
// tells the policy what it did, and the policy charges.
package blobfs

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"betrfs/internal/blockdev"
	"betrfs/internal/ioerr"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// BlockSize is the file-system block size.
const BlockSize = 4096

// Ino is an inode number. Handles are Inos.
type Ino int64

// RootIno is the root directory.
const RootIno Ino = 1

// Child is a directory entry.
type Child struct {
	Ino Ino
	Dir bool
}

// Node is an in-memory inode.
type Node struct {
	Ino      Ino
	Dir      bool
	Size     int64
	Nlink    int
	Mtime    time.Duration
	Blocks   map[int64]int64 // logical block -> area block
	Children map[string]Child
	Dirty    bool // changed since its blob was last written
}

// NewNode returns a dirty, empty inode.
func NewNode(ino Ino, dir bool, mtime time.Duration) *Node {
	n := &Node{Ino: ino, Dir: dir, Nlink: 1, Mtime: mtime, Blocks: map[int64]int64{}, Dirty: true}
	if dir {
		n.Nlink = 2
		n.Children = map[string]Child{}
	}
	return n
}

// Loc locates a blob: Count contiguous area blocks from First. First < 0
// marks an inode whose blob has not been written yet.
type Loc struct {
	First int64
	Count int
}

// OpKind names a namespace mutation.
type OpKind int

// The namespace mutations a Policy is told about.
const (
	OpCreate OpKind = iota + 1
	OpRemove
	OpRename
	OpAttr
)

// Op is one namespace mutation, reported after the core applied it.
type Op struct {
	Kind      OpKind
	Ino       Ino           // the inode created, removed, renamed or changed
	Parent    Ino           // its (old) directory; not set for OpAttr
	Name      string        // its (old) name; not set for OpAttr
	Dir       bool          // OpCreate: the inode is a directory
	NewParent Ino           // OpRename
	NewName   string        // OpRename
	Size      int64         // OpAttr
	Mtime     time.Duration // OpAttr
}

// Policy is what each file system decides for itself.
type Policy interface {
	// Free releases an area block that a removal or truncation dropped.
	Free(b int64)
	// Commit makes every dirty inode durable (Sync, DropCaches).
	Commit()
	// Logged sees each namespace mutation after it is applied.
	Logged(op Op)
	// NameLookup charges for looking name up in a directory.
	NameLookup(name string)
	// BlobRead charges for a blob read of raw bytes whose payload of
	// payload bytes then opened and decoded, or failed with err.
	BlobRead(raw, payload int, err error)
	// DataRead charges for reading n bytes of file data into pages.
	DataRead(n int)
}

// Core is the shared state and the vfs.FS operations a file system embeds.
// The file system adds WriteBlocks, Fsync and Maintain.
type Core struct {
	Env *sim.Env
	Dev blockdev.Device
	// Inodes holds every dirty inode and whatever cold reads have loaded.
	Inodes map[Ino]*Node
	// Table locates each inode's blob.
	Table map[Ino]Loc
	// NextIno is the inode number Create hands out next.
	NextIno Ino

	name       string // the file system's name, prefixed to errors
	magic      uint32 // the file system's blob magic
	areaOff    int64  // device offset of area block 0
	areaBlocks int64  // blocks in the area that blobs and data live in
	maxInos    Ino    // the inode map's capacity: Create hands out numbers below it
	pol        Policy
	// ioErr is the sticky abort (§10): once a blob, table or data write
	// fails, durable state cannot be trusted, so mutations are refused
	// while reads keep working.
	ioErr error
}

// New returns a core holding only the root directory. Blobs and data live
// in an area of areaBlocks blocks starting at device offset areaOff, and
// the inode map locates inode numbers below maxInos.
func New(name string, magic uint32, env *sim.Env, dev blockdev.Device, areaOff, areaBlocks int64, maxInos Ino, pol Policy) Core {
	c := Core{Env: env, Dev: dev, Inodes: map[Ino]*Node{}, Table: map[Ino]Loc{}, NextIno: RootIno + 1,
		name: name, magic: magic, areaOff: areaOff, areaBlocks: areaBlocks, maxInos: maxInos, pol: pol}
	c.addRoot()
	return c
}

// addRoot adds an empty, unwritten root directory.
func (c *Core) addRoot() {
	c.Inodes[RootIno] = NewNode(RootIno, true, 0)
	c.Table[RootIno] = Loc{First: -1}
}

// MaxInos is the inode map's capacity: one past the largest inode number
// it has room for.
func (c *Core) MaxInos() Ino { return c.maxInos }

// BlockAddr converts an area block to a device offset.
func (c *Core) BlockAddr(b int64) int64 { return c.areaOff + b*BlockSize }

// DevCheck aborts the current operation on a device error; a failed write
// or flush also latches the sticky abort.
func (c *Core) DevCheck(err error) {
	if err == nil {
		return
	}
	var de *ioerr.DeviceError
	if errors.As(err, &de) && de.Op != "read" && c.ioErr == nil {
		c.ioErr = err
	}
	ioerr.Check(err)
}

// WriteGate returns the latched error that refuses mutations, if any.
func (c *Core) WriteGate() error { return c.ioErr }

// Node returns ino's inode, reading its blob on a cache miss. A device
// error or a damaged blob aborts the operation with the cause
// (errors.Is(err, ioerr.ErrIO) holds for media errors).
func (c *Core) Node(ino Ino) *Node {
	if n, ok := c.Inodes[ino]; ok {
		return n
	}
	loc, ok := c.Table[ino]
	if !ok || loc.First < 0 {
		panic(fmt.Sprintf("%s: inode %d has no blob", c.name, ino))
	}
	n, err := c.load(ino, loc)
	ioerr.Check(err)
	c.Inodes[ino] = n
	return n
}

// load reads, validates and decodes ino's blob at loc.
func (c *Core) load(ino Ino, loc Loc) (*Node, error) {
	if loc.Count <= 0 || loc.First < 0 || loc.First > c.areaBlocks || int64(loc.Count) > c.areaBlocks-loc.First {
		return nil, fmt.Errorf("%s: location of inode %d out of range (%d+%d)", c.name, ino, loc.First, loc.Count)
	}
	raw := make([]byte, loc.Count*BlockSize)
	if err := c.Dev.ReadAt(raw, c.BlockAddr(loc.First)); err != nil {
		return nil, fmt.Errorf("%s: blob for inode %d: %w", c.name, ino, err)
	}
	payload, err := openBlob(c.magic, ino, raw)
	var n *Node
	if err == nil {
		n, err = decodeNode(ino, payload, c.areaBlocks)
	}
	c.pol.BlobRead(len(raw), len(payload), err)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return n, nil
}

// Seal encodes n as a blob padded to whole blocks. size is the blob's
// length before padding.
func (c *Core) Seal(n *Node) (blob []byte, size int) {
	b := sealBlob(c.magic, n.Ino, encodeNode(n))
	blob = make([]byte, (len(b)+BlockSize-1)/BlockSize*BlockSize)
	copy(blob, b)
	return blob, len(b)
}

// Dirty returns the dirty inodes in inode order: where a blob lands
// depends on write order, so a commit must not follow map order.
func (c *Core) Dirty() []*Node {
	var ns []*Node
	for _, n := range c.Inodes {
		if n.Dirty {
			ns = append(ns, n)
		}
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i].Ino < ns[j].Ino })
	return ns
}

// FillTable encodes into buf the location-table block that starts at
// inode first.
func (c *Core) FillTable(buf []byte, first Ino) {
	for i := 0; i < BlockSize/LocSize; i++ {
		loc, ok := c.Table[first+Ino(i)]
		putLoc(buf[i*LocSize:], loc, ok)
	}
}

// WriteTable writes the location table for every inode below NextIno to
// the blocks from device offset base.
func (c *Core) WriteTable(base int64) {
	buf := make([]byte, BlockSize)
	for first := Ino(0); first < c.NextIno; first += BlockSize / LocSize {
		c.FillTable(buf, first)
		c.DevCheck(c.Dev.WriteAt(buf, base+int64(first)*LocSize))
	}
}

// Load is the recovery scan. It reads the location table at device offset
// base for every inode below NextIno, then each blob the table names, in
// inode order so that what recovery costs does not depend on map order. A
// blob that fails validation — torn by a crash, or never persisted — was
// not durable: its inode is dropped. A media error fails the scan, since
// dropping the inode would silently discard durable data. claim sees each
// inode that survives, with its blob's location, so that the file system
// can rebuild its allocation state. A missing root is recreated empty.
func (c *Core) Load(base int64, claim func(n *Node, loc Loc)) error {
	c.Inodes, c.Table = map[Ino]*Node{}, map[Ino]Loc{}
	buf := make([]byte, BlockSize)
	for first := Ino(0); first < c.NextIno; first += BlockSize / LocSize {
		if err := c.Dev.ReadAt(buf, base+int64(first)*LocSize); err != nil {
			return fmt.Errorf("%s: location table block for inode %d unreadable: %w", c.name, first, err)
		}
		for i := Ino(0); i < BlockSize/LocSize && first+i < c.NextIno; i++ {
			if loc, ok := getLoc(buf[i*LocSize:]); ok {
				c.Table[first+i] = loc
			}
		}
	}
	for ino := Ino(0); ino < c.NextIno; ino++ {
		loc, ok := c.Table[ino]
		if !ok {
			continue
		}
		n, err := c.load(ino, loc)
		if errors.Is(err, ioerr.ErrIO) {
			return err
		}
		if err != nil {
			delete(c.Table, ino)
			continue
		}
		c.Inodes[ino] = n
		claim(n, loc)
	}
	if _, ok := c.Inodes[RootIno]; !ok {
		c.addRoot()
	}
	return nil
}

// Prune drops every directory entry whose inode did not survive recovery,
// so that no later lookup faults on a missing inode.
func (c *Core) Prune() {
	for _, n := range c.Inodes {
		for name, ch := range n.Children {
			if _, ok := c.Inodes[ch.Ino]; !ok {
				delete(n.Children, name)
				n.Dirty = true
			}
		}
	}
}

// --- vfs.FS operations -------------------------------------------------------

// Root returns the root handle.
func (c *Core) Root() vfs.Handle { return RootIno }

func attrOf(n *Node) vfs.Attr {
	return vfs.Attr{Dir: n.Dir, Size: n.Size, Nlink: n.Nlink, Mtime: n.Mtime}
}

// touch records a change to directory p's entries.
func (c *Core) touch(p *Node) {
	p.Mtime = c.Env.Now()
	p.Dirty = true
}

// Lookup resolves name in parent, reading blobs on a cold cache.
func (c *Core) Lookup(parent vfs.Handle, name string) (h vfs.Handle, a vfs.Attr, err error) {
	defer ioerr.Guard(&err)
	p := c.Node(parent.(Ino))
	c.pol.NameLookup(name)
	ch, ok := p.Children[name]
	if !ok {
		return nil, vfs.Attr{}, vfs.ErrNotExist
	}
	return ch.Ino, attrOf(c.Node(ch.Ino)), nil
}

// Create allocates an inode; its blob is written at the next commit.
// Inode numbers are not reused, so once they reach the inode map's
// capacity every Create fails with ENOSPC.
func (c *Core) Create(parent vfs.Handle, name string, dir bool) (h vfs.Handle, a vfs.Attr, err error) {
	defer ioerr.Guard(&err)
	if c.ioErr != nil {
		return nil, vfs.Attr{}, c.ioErr
	}
	p := c.Node(parent.(Ino))
	if _, ok := p.Children[name]; ok {
		return nil, vfs.Attr{}, vfs.ErrExist
	}
	if c.NextIno >= c.maxInos {
		return nil, vfs.Attr{}, fmt.Errorf("%s: inode map full at %d inodes: %w", c.name, c.maxInos, vfs.ErrNoSpace)
	}
	ino := c.NextIno
	c.NextIno++
	n := NewNode(ino, dir, c.Env.Now())
	c.Inodes[ino] = n
	c.Table[ino] = Loc{First: -1}
	p.Children[name] = Child{Ino: ino, Dir: dir}
	c.touch(p)
	c.pol.Logged(Op{Kind: OpCreate, Ino: ino, Parent: p.Ino, Name: name, Dir: dir})
	return ino, attrOf(n), nil
}

// Remove unlinks name and frees the inode's data blocks and blob.
func (c *Core) Remove(parent vfs.Handle, name string, h vfs.Handle, dir bool) (err error) {
	defer ioerr.Guard(&err)
	if c.ioErr != nil {
		return c.ioErr
	}
	p := c.Node(parent.(Ino))
	ch, ok := p.Children[name]
	if !ok {
		return vfs.ErrNotExist
	}
	n := c.Node(ch.Ino)
	if dir && len(n.Children) > 0 {
		return vfs.ErrNotEmpty
	}
	c.freeBlocks(n, 0)
	// Read the location only now: freeing may have committed, which
	// rewrites a dirty blob elsewhere.
	if loc := c.Table[ch.Ino]; loc.First >= 0 {
		for i := 0; i < loc.Count; i++ {
			c.pol.Free(loc.First + int64(i))
		}
	}
	delete(c.Table, ch.Ino)
	delete(c.Inodes, ch.Ino)
	delete(p.Children, name)
	c.touch(p)
	c.pol.Logged(Op{Kind: OpRemove, Ino: ch.Ino, Parent: p.Ino, Name: name})
	return nil
}

// freeBlocks frees n's data blocks at or past logical block from, then
// unmaps them. It frees in logical order: a policy's Free may commit, and
// which blocks that commit sees freed must not depend on map order.
func (c *Core) freeBlocks(n *Node, from int64) {
	var ls []int64
	for l := range n.Blocks {
		if l >= from {
			ls = append(ls, l)
		}
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	for _, l := range ls {
		c.pol.Free(n.Blocks[l])
	}
	for _, l := range ls {
		delete(n.Blocks, l)
	}
}

// Rename moves the entry; inode numbers are stable.
func (c *Core) Rename(oldParent vfs.Handle, oldName string, h vfs.Handle, newParent vfs.Handle, newName string) (nh vfs.Handle, err error) {
	defer ioerr.Guard(&err)
	if c.ioErr != nil {
		return nil, c.ioErr
	}
	op := c.Node(oldParent.(Ino))
	np := c.Node(newParent.(Ino))
	ch, ok := op.Children[oldName]
	if !ok {
		return nil, vfs.ErrNotExist
	}
	delete(op.Children, oldName)
	np.Children[newName] = ch
	c.touch(op)
	c.touch(np)
	c.pol.Logged(Op{Kind: OpRename, Ino: ch.Ino, Parent: op.Ino, Name: oldName, NewParent: np.Ino, NewName: newName})
	return h, nil
}

// ReadDir lists children in name order (not Known: no opportunistic
// inode instantiation).
func (c *Core) ReadDir(h vfs.Handle) (ents []vfs.DirEntry, err error) {
	defer ioerr.Guard(&err)
	n := c.Node(h.(Ino))
	if !n.Dir {
		return nil, vfs.ErrNotDir
	}
	names := make([]string, 0, len(n.Children))
	for name := range n.Children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]vfs.DirEntry, 0, len(names))
	for _, name := range names {
		out = append(out, vfs.DirEntry{Name: name, Dir: n.Children[name].Dir})
	}
	return out, nil
}

// WriteAttr records size and mtime in the in-memory inode.
func (c *Core) WriteAttr(h vfs.Handle, a vfs.Attr) (err error) {
	defer ioerr.Guard(&err)
	if c.ioErr != nil {
		return c.ioErr
	}
	n := c.Node(h.(Ino))
	n.Size = a.Size
	n.Mtime = a.Mtime
	n.Dirty = true
	c.pol.Logged(Op{Kind: OpAttr, Ino: n.Ino, Size: a.Size, Mtime: a.Mtime})
	return nil
}

// ReadBlocks fills pages, merging area-contiguous runs into single reads;
// unmapped blocks read as zeros.
func (c *Core) ReadBlocks(h vfs.Handle, blk int64, pages []*vfs.Page, seq bool) (err error) {
	defer ioerr.Guard(&err)
	n := c.Node(h.(Ino))
	for i := 0; i < len(pages); {
		phys, ok := n.Blocks[blk+int64(i)]
		if !ok {
			clear(pages[i].Data)
			i++
			continue
		}
		run := 1
		for i+run < len(pages) {
			np, ok := n.Blocks[blk+int64(i+run)]
			if !ok || np != phys+int64(run) {
				break
			}
			run++
		}
		buf := make([]byte, run*BlockSize)
		c.DevCheck(c.Dev.ReadAt(buf, c.BlockAddr(phys)))
		for j := 0; j < run; j++ {
			copy(pages[i+j].Data, buf[j*BlockSize:(j+1)*BlockSize])
		}
		c.pol.DataRead(len(buf))
		i += run
	}
	return nil
}

// WritePartial is unsupported (read-modify-write applies); calling it is
// a programmer error, so it panics.
func (c *Core) WritePartial(h vfs.Handle, blk int64, off int, data []byte, durable bool) error {
	panic(c.name + ": blind writes unsupported")
}

// SupportsBlindWrites reports false.
func (c *Core) SupportsBlindWrites() bool { return false }

// TruncateBlocks frees the blocks at or beyond fromBlk.
func (c *Core) TruncateBlocks(h vfs.Handle, fromBlk int64) (err error) {
	defer ioerr.Guard(&err)
	if c.ioErr != nil {
		return c.ioErr
	}
	n := c.Node(h.(Ino))
	c.freeBlocks(n, fromBlk)
	n.Dirty = true
	return nil
}

// Sync commits every dirty inode.
func (c *Core) Sync() (err error) {
	defer ioerr.Guard(&err)
	if c.ioErr != nil {
		return c.ioErr
	}
	c.pol.Commit()
	return nil
}

// DropCaches commits, then evicts every inode but the root. No error
// return in the vfs.FS contract; failures latch the sticky abort.
func (c *Core) DropCaches() {
	var err error
	defer ioerr.Guard(&err)
	if c.ioErr == nil {
		c.pol.Commit()
	}
	for ino := range c.Inodes {
		if ino != RootIno {
			delete(c.Inodes, ino)
		}
	}
}
