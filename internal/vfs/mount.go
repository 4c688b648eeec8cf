package vfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"betrfs/internal/keys"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
)

// Config tunes the VFS caches; defaults model the paper's 32 GB testbed
// scaled down alongside the workloads.
type Config struct {
	// CacheBytes bounds the page cache.
	CacheBytes int64
	// Concurrent serializes every public Mount and File entry point
	// behind one mount-wide lock so multiple client goroutines can share
	// a mount (the betrbench -clients mode). The default (false) takes
	// no locks at all, keeping single-client simulations bit-identical
	// to historical results. The underlying FS must be prepared for
	// overlapping operations itself (the betree store's own Concurrent
	// mode); the big lock only protects VFS caches and accounting.
	Concurrent bool
}

// DefaultConfig returns the standard VFS configuration.
func DefaultConfig() Config {
	return Config{CacheBytes: 1 << 30}
}

// Write-back timing; the ratio and the expiry are Linux's defaults.
const (
	// dirtyRatio is the fraction of CacheBytes at which writers are
	// throttled into write-back (vm.dirty_ratio).
	dirtyRatio = 0.20
	// dirtyExpire is how long a page or inode may stay dirty before
	// background write-back picks it up (dirty_expire_centisecs).
	dirtyExpire = 30 * time.Second
	// maintainInterval is how often operation paths run background work.
	maintainInterval = time.Second
)

// readAheadMaxPages bounds the sequential read-ahead window.
const readAheadMaxPages = 64

// inode is the VFS in-memory inode.
type inode struct {
	h          Handle
	path       string
	attr       Attr
	dirty      bool
	dirtySince time.Duration
	pages      map[int64]*Page
}

// dentry maps a path to an inode (or caches a negative lookup).
type dentry struct {
	ino *inode
	neg bool
}

// Mount is a mounted file system instance.
type Mount struct {
	env *sim.Env
	fs  FS
	cfg Config

	dcache map[string]*dentry
	icache map[Handle]*inode
	root   *inode
	// childBuf is where readDirLocked builds each child's path to look it
	// up in the dcache; a child path is allocated only when inserted.
	childBuf []byte

	// Page accounting: lru holds clean pages for eviction; dirty holds
	// dirty pages in dirtying order for write-back. frames recycles the
	// page frames the cache and the FS have both let go of.
	lru        pageList
	dirty      pageList
	frames     framePool
	run        []*Page // writebackPage's run, reused across calls
	cleanBytes int64
	dirtyBytes int64

	dirtyInodes map[*inode]time.Duration

	lastMaintain time.Duration
	m            mountMetrics

	// Write-back error state (DESIGN.md §10). wbErr latches the first
	// unreported asynchronous write-back failure, Linux errseq-style: the
	// next Fsync or Sync returns it, then it clears. roErr latches the
	// EIO-class failure that degraded the mount read-only; it never
	// clears — remount (a fresh NewMount) is the only way back.
	wbErr error
	roErr error

	// clientMu is the mount big lock (cfg.Concurrent only): public entry
	// points lock it, unexported internals assume it is held. Lock order:
	// clientMu is taken strictly above every FS-internal lock (betree
	// store/node locks, WAL, device) and is never acquired twice on one
	// call path — public methods immediately delegate to *Locked
	// internals for any work a sibling entry point also needs.
	clientMu sync.Mutex
}

// lock acquires the mount big lock in concurrent mode; no-op otherwise.
func (m *Mount) lock() {
	if m.cfg.Concurrent {
		m.clientMu.Lock()
	}
}

func (m *Mount) unlock() {
	if m.cfg.Concurrent {
		m.clientMu.Unlock()
	}
}

// mountMetrics holds the VFS registry instruments, resolved at NewMount.
type mountMetrics struct {
	lookup     *metrics.Counter
	dcacheHit  *metrics.Counter
	fsLookup   *metrics.Counter
	create     *metrics.Counter
	remove     *metrics.Counter
	rename     *metrics.Counter
	readdir    *metrics.Counter
	stat       *metrics.Counter
	bytesRead  *metrics.Counter
	bytesWrite *metrics.Counter
	pageRead   *metrics.Counter
	pageWrite  *metrics.Counter
	pageEvict  *metrics.Counter
	writeBlind *metrics.Counter
	// blindCache counts the blind writes that patched a clean cached
	// page, a subset of writeBlind.
	blindCache *metrics.Counter
	writeRMW   *metrics.Counter
	cowCopy    *metrics.Counter
	fsync      *metrics.Counter
	remountRO  *metrics.Counter
	readNs     *metrics.Histogram
	writeNs    *metrics.Histogram
	fsyncNs    *metrics.Histogram
}

func resolveMountMetrics(reg *metrics.Registry) mountMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return mountMetrics{
		lookup:     reg.Counter("vfs.lookup.count"),
		dcacheHit:  reg.Counter("vfs.dcache.hit"),
		fsLookup:   reg.Counter("vfs.lookup.fs"),
		create:     reg.Counter("vfs.create.count"),
		remove:     reg.Counter("vfs.remove.count"),
		rename:     reg.Counter("vfs.rename.count"),
		readdir:    reg.Counter("vfs.readdir.count"),
		stat:       reg.Counter("vfs.stat.count"),
		bytesRead:  reg.Counter("vfs.bytes.read"),
		bytesWrite: reg.Counter("vfs.bytes.written"),
		pageRead:   reg.Counter("vfs.page.read"),
		pageWrite:  reg.Counter("vfs.page.write"),
		pageEvict:  reg.Counter("vfs.page.evict"),
		writeBlind: reg.Counter("vfs.write.blind"),
		blindCache: reg.Counter("vfs.write.blind.cached"),
		writeRMW:   reg.Counter("vfs.write.rmw"),
		cowCopy:    reg.Counter("vfs.page.cow"),
		fsync:      reg.Counter("vfs.fsync.count"),
		remountRO:  reg.Counter("vfs.remount.ro"),
		readNs:     reg.Histogram("vfs.read.ns", "ns"),
		writeNs:    reg.Histogram("vfs.write.ns", "ns"),
		fsyncNs:    reg.Histogram("vfs.fsync.ns", "ns"),
	}
}

// Mount wraps fs with the VFS caches.
func NewMount(env *sim.Env, fs FS, cfg Config) *Mount {
	m := &Mount{
		env:         env,
		fs:          fs,
		cfg:         cfg,
		dcache:      make(map[string]*dentry),
		icache:      make(map[Handle]*inode),
		frames:      framePool{max: int(cfg.CacheBytes / PageSize)},
		dirtyInodes: make(map[*inode]time.Duration),
	}
	m.m = resolveMountMetrics(env.Metrics)
	rootH := fs.Root()
	m.root = &inode{h: rootH, path: "", attr: Attr{Dir: true, Nlink: 2}, pages: map[int64]*Page{}}
	m.icache[rootH] = m.root
	m.dcache[""] = &dentry{ino: m.root}
	return m
}

// Degraded returns the write failure that flipped the mount read-only,
// or nil while the mount is healthy.
func (m *Mount) Degraded() error {
	m.lock()
	defer m.unlock()
	return m.roErr
}

// writebackError latches an asynchronous write failure so the next Fsync
// or Sync reports it (errseq semantics). An EIO-class failure additionally
// degrades the mount read-only: dirty state can no longer reliably reach
// the device, so accepting more writes would only grow the loss. ErrNoSpace
// never degrades — it is recoverable by deleting files.
func (m *Mount) writebackError(err error) {
	if err == nil {
		return
	}
	if m.wbErr == nil {
		m.wbErr = err
	}
	if m.roErr == nil && errors.Is(err, ErrIO) {
		m.roErr = err
		m.m.remountRO.Inc()
		m.env.Trace("vfs", "remount-ro", err.Error(), 0)
	}
}

// writeGate rejects namespace and data mutations on a degraded mount with
// EROFS, as the kernel does after errors=remount-ro trips.
func (m *Mount) writeGate() error {
	if m.roErr == nil {
		return nil
	}
	return fmt.Errorf("vfs: mount degraded after %v: %w", m.roErr, ErrReadOnly)
}

// reportWbErr folds the latched write-back error into an op's own result:
// the op error wins, otherwise the latched one is returned. Reporting
// clears the latch (the read-only latch, if set, stays).
func (m *Mount) reportWbErr(opErr error) error {
	if m.wbErr != nil {
		if opErr == nil {
			opErr = m.wbErr
		}
		m.wbErr = nil
	}
	return opErr
}

// --- path resolution --------------------------------------------------------

// walk resolves path to an inode, charging dentry-cache costs per
// component and falling back to FS lookups on misses.
func (m *Mount) walk(path string) (*inode, error) {
	m.m.lookup.Inc()
	path = keys.Clean(path)
	if d, ok := m.dcache[path]; ok {
		m.env.Charge(m.env.Costs.PathComponent)
		m.m.dcacheHit.Inc()
		if d.neg {
			return nil, ErrNotExist
		}
		return d.ino, nil
	}
	parts := keys.Split(path)
	cur := m.root
	walked := ""
	for _, part := range parts {
		m.env.Charge(m.env.Costs.PathComponent)
		if !cur.attr.Dir {
			return nil, ErrNotDir
		}
		walked = keys.Join(walked, part)
		if d, ok := m.dcache[walked]; ok {
			if d.neg {
				return nil, ErrNotExist
			}
			cur = d.ino
			continue
		}
		m.m.fsLookup.Inc()
		h, attr, err := m.fs.Lookup(cur.h, part)
		if err != nil {
			if err == ErrNotExist {
				m.dcache[walked] = &dentry{neg: true}
			}
			return nil, err
		}
		child := m.internInode(h, walked, attr)
		m.dcache[walked] = &dentry{ino: child}
		cur = child
	}
	return cur, nil
}

// checkName refuses a clean path that a create, mkdir or rename may not
// name: one longer than PathMax, or with a component longer than NameMax.
func checkName(path string) error {
	if len(path) > PathMax {
		return ErrNameTooLong
	}
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			if i-start > NameMax {
				return ErrNameTooLong
			}
			start = i + 1
		}
	}
	return nil
}

// internInode returns the cached inode for h, creating it if needed.
func (m *Mount) internInode(h Handle, path string, attr Attr) *inode {
	if ino, ok := m.icache[h]; ok {
		return ino
	}
	ino := &inode{h: h, path: path, attr: attr, pages: map[int64]*Page{}}
	m.icache[h] = ino
	return ino
}

func (m *Mount) markInodeDirty(ino *inode) {
	ino.attr.Mtime = m.env.Now()
	if !ino.dirty {
		ino.dirty = true
		ino.dirtySince = m.env.Now()
		m.dirtyInodes[ino] = ino.dirtySince
	}
}

// --- namespace operations ---------------------------------------------------

// Mkdir creates a directory.
func (m *Mount) Mkdir(path string) error {
	m.lock()
	defer m.unlock()
	return m.mkdirLocked(path)
}

func (m *Mount) mkdirLocked(path string) error {
	m.chargeSyscall()
	defer m.maintain()
	if err := m.writeGate(); err != nil {
		return err
	}
	path = keys.Clean(path)
	if err := checkName(path); err != nil {
		return err
	}
	parentPath, name := keys.ParentAndName(path)
	if name == "" {
		return ErrExist
	}
	parent, err := m.walk(parentPath)
	if err != nil {
		return err
	}
	if _, err := m.walk(path); err == nil {
		return ErrExist
	}
	m.m.create.Inc()
	h, attr, err := m.fs.Create(parent.h, name, true)
	if err != nil {
		return err
	}
	ino := m.internInode(h, path, attr)
	m.markInodeDirty(ino)
	m.dcache[path] = &dentry{ino: ino}
	parent.attr.Nlink++
	m.markInodeDirty(parent)
	return nil
}

// MkdirAll creates path and any missing parents.
func (m *Mount) MkdirAll(path string) error {
	m.lock()
	defer m.unlock()
	parts := keys.Split(path)
	cur := ""
	for _, p := range parts {
		cur = keys.Join(cur, p)
		if err := m.mkdirLocked(cur); err != nil && err != ErrExist {
			return err
		}
	}
	return nil
}

// Remove unlinks the file at path.
func (m *Mount) Remove(path string) error {
	m.lock()
	defer m.unlock()
	return m.remove(path, false)
}

// Rmdir removes the (empty) directory at path.
func (m *Mount) Rmdir(path string) error {
	m.lock()
	defer m.unlock()
	return m.remove(path, true)
}

func (m *Mount) remove(path string, dir bool) error {
	m.chargeSyscall()
	defer m.maintain()
	if err := m.writeGate(); err != nil {
		return err
	}
	path = keys.Clean(path)
	ino, err := m.walk(path)
	if err != nil {
		return err
	}
	if ino.attr.Dir != dir {
		if dir {
			return ErrNotDir
		}
		return ErrIsDir
	}
	parentPath, name := keys.ParentAndName(path)
	parent, err := m.walk(parentPath)
	if err != nil {
		return err
	}
	m.m.remove.Inc()
	if err := m.fs.Remove(parent.h, name, ino.h, dir); err != nil {
		return err
	}
	// Discard cached state: deleted data is never written back.
	m.dropInodePages(ino)
	delete(m.icache, ino.h)
	delete(m.dirtyInodes, ino)
	ino.dirty = false
	delete(m.dcache, path)
	if dir {
		parent.attr.Nlink--
	}
	m.markInodeDirty(parent)
	return nil
}

// RemoveAll recursively deletes path, mirroring rm -rf's bottom-up
// traversal through the VFS (§2.3): readdir each directory, recurse, then
// unlink children before the parent rmdir.
func (m *Mount) RemoveAll(path string) error {
	m.lock()
	defer m.unlock()
	return m.removeAllLocked(path)
}

func (m *Mount) removeAllLocked(path string) error {
	path = keys.Clean(path)
	ino, err := m.walk(path)
	if err != nil {
		if err == ErrNotExist {
			return nil
		}
		return err
	}
	if !ino.attr.Dir {
		return m.remove(path, false)
	}
	entries, err := m.readDirLocked(path)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := m.removeAllLocked(keys.Join(path, e.Name)); err != nil {
			return err
		}
	}
	return m.remove(path, true)
}

// ReadDir lists the directory at path, opportunistically instantiating
// child dentries and inodes when the FS provides them (§4 DC).
func (m *Mount) ReadDir(path string) ([]DirEntry, error) {
	m.lock()
	defer m.unlock()
	return m.readDirLocked(path)
}

func (m *Mount) readDirLocked(path string) ([]DirEntry, error) {
	m.chargeSyscall()
	defer m.maintain()
	path = keys.Clean(path)
	ino, err := m.walk(path)
	if err != nil {
		return nil, err
	}
	if !ino.attr.Dir {
		return nil, ErrNotDir
	}
	m.m.readdir.Inc()
	entries, err := m.fs.ReadDir(ino.h)
	if err != nil {
		return nil, err
	}
	// Known entries instantiate dentries and inodes opportunistically
	// (§4 DC); whether the FS returns any is its choice.
	for _, e := range entries {
		if !e.Known {
			continue
		}
		buf := append(m.childBuf[:0], path...)
		if path != "" {
			buf = append(buf, '/')
		}
		m.childBuf = append(buf, e.Name...)
		if _, ok := m.dcache[string(m.childBuf)]; ok {
			continue
		}
		childPath := string(m.childBuf)
		child := m.internInode(e.Handle, childPath, e.Attr)
		m.dcache[childPath] = &dentry{ino: child}
		m.env.Charge(m.env.Costs.PathComponent) // dcache insert
	}
	return entries, nil
}

// Rename moves oldPath to newPath (replacing a non-directory target).
func (m *Mount) Rename(oldPath, newPath string) error {
	m.lock()
	defer m.unlock()
	m.chargeSyscall()
	defer m.maintain()
	if err := m.writeGate(); err != nil {
		return err
	}
	oldPath = keys.Clean(oldPath)
	newPath = keys.Clean(newPath)
	if err := checkName(newPath); err != nil {
		return err
	}
	ino, err := m.walk(oldPath)
	if err != nil {
		return err
	}
	if target, err := m.walk(newPath); err == nil {
		if target.attr.Dir {
			return ErrExist
		}
		if err := m.remove(newPath, false); err != nil {
			return err
		}
	}
	oldParentPath, oldName := keys.ParentAndName(oldPath)
	newParentPath, newName := keys.ParentAndName(newPath)
	oldParent, err := m.walk(oldParentPath)
	if err != nil {
		return err
	}
	newParent, err := m.walk(newParentPath)
	if err != nil {
		return err
	}
	m.m.rename.Inc()
	if ino.attr.Dir {
		// Directory renames change descendant handles in path-indexed
		// file systems: write back and drop everything beneath.
		m.writebackSubtree(oldPath)
		m.dropSubtreeCaches(oldPath)
	}
	newH, err := m.fs.Rename(oldParent.h, oldName, ino.h, newParent.h, newName)
	if err != nil {
		return err
	}
	delete(m.dcache, oldPath)
	delete(m.icache, ino.h)
	ino.h = newH
	ino.path = newPath
	m.icache[newH] = ino
	m.dcache[newPath] = &dentry{ino: ino}
	if ino.attr.Dir {
		oldParent.attr.Nlink--
		newParent.attr.Nlink++
	}
	m.markInodeDirty(oldParent)
	m.markInodeDirty(newParent)
	return nil
}

// Stat returns metadata for path.
func (m *Mount) Stat(path string) (Attr, error) {
	m.lock()
	defer m.unlock()
	m.chargeSyscall()
	defer m.maintain()
	m.m.stat.Inc()
	ino, err := m.walk(path)
	if err != nil {
		return Attr{}, err
	}
	return ino.attr, nil
}

// Sync writes back all dirty state and asks the FS to persist everything.
// It returns the first failure from this pass or from earlier background
// write-back (errseq: each latched error is reported exactly once).
func (m *Mount) Sync() error {
	m.lock()
	defer m.unlock()
	return m.syncLocked()
}

func (m *Mount) syncLocked() error {
	m.chargeSyscall()
	m.writebackAll(false)
	if err := m.fs.Sync(); err != nil {
		m.writebackError(err)
	}
	return m.reportWbErr(nil)
}

// Scrub verifies every on-disk structure of the mounted FS and, with
// repair set, relocates what can be recovered (see the Scrubber
// interface). Dirty state is written back first so the scrub sees — and
// repair mode preserves — the mount's current contents; the results of a
// repair pass are durable when Scrub returns. File systems without scrub
// support return ErrNotSupported.
func (m *Mount) Scrub(repair bool) (ScrubStats, error) {
	m.lock()
	defer m.unlock()
	sc, ok := m.fs.(Scrubber)
	if !ok {
		return ScrubStats{}, ErrNotSupported
	}
	m.chargeSyscall()
	if repair {
		if err := m.syncLocked(); err != nil {
			return ScrubStats{}, err
		}
	}
	return sc.Scrub(repair)
}

// Writeback pushes every dirty page and inode attribute to the file
// system without a durability barrier — the state the device sees when
// background writeback has run but no flush was issued. Crash-test
// harnesses call this before cutting power so the unflushed-write
// stream contains the interesting in-flight writes.
func (m *Mount) Writeback() {
	m.lock()
	defer m.unlock()
	m.writebackAll(false)
}

// DropCaches writes back dirty state and then empties the page, dentry,
// and inode caches plus the FS's own caches — the echo 3 >
// /proc/sys/vm/drop_caches step cold-cache benchmarks perform.
func (m *Mount) DropCaches() {
	m.lock()
	defer m.unlock()
	// Best effort: a sync failure is latched for the next Fsync/Sync to
	// report; dropping caches proceeds regardless (the dirty data the
	// failed pass could not persist has already been dropped-with-count).
	if err := m.syncLocked(); err != nil {
		m.writebackError(err)
	}
	for h, ino := range m.icache {
		m.dropInodePages(ino)
		if ino != m.root {
			delete(m.icache, h)
		}
	}
	m.dcache = map[string]*dentry{"": {ino: m.root}}
	m.dirtyInodes = make(map[*inode]time.Duration)
	m.fs.DropCaches()
}

func (m *Mount) chargeSyscall() {
	m.env.Charge(m.env.Costs.Syscall)
}

// writebackSubtree flushes dirty pages and inodes under prefix, in path
// order (icache is a map; write-back order is charge-visible).
func (m *Mount) writebackSubtree(prefix string) {
	var inos []*inode
	for _, ino := range m.icache {
		if ino.path == prefix || strings.HasPrefix(ino.path, prefix+"/") {
			inos = append(inos, ino)
		}
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i].path < inos[j].path })
	for _, ino := range inos {
		m.writebackInodePages(ino, false)
		m.writebackInodeAttr(ino)
	}
}

// dropSubtreeCaches discards dentries and inodes under prefix (must be
// clean).
func (m *Mount) dropSubtreeCaches(prefix string) {
	for p := range m.dcache {
		if p == prefix || strings.HasPrefix(p, prefix+"/") {
			delete(m.dcache, p)
		}
	}
	for h, ino := range m.icache {
		if ino.path == prefix || strings.HasPrefix(ino.path, prefix+"/") {
			m.dropInodePages(ino)
			delete(m.icache, h)
			delete(m.dirtyInodes, ino)
		}
	}
}
