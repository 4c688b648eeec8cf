// Package betrfs implements the BetrFS "northbound" layer (§2.2): the
// translation from VFS operations to key-value operations on two Bε-tree
// indexes keyed by full path — a metadata index (path → stat structure)
// and a data index (path, block → 4 KiB block).
//
// Every optimization the paper contributes is a configuration flag here or
// in the underlying tree, so the evaluation can apply them cumulatively
// exactly as Table 3 does:
//
//	SFL   — storage backend selection (sfl vs southbound), wired by the caller
//	RG    — directory-wide range deletes on rmdir, nlink-based empty
//	        checks, no redundant per-file delete messages (§4)
//	MLC   — cooperative memory management (kmem allocator mode, §5)
//	PGSH  — page sharing via insert-by-reference (§6)
//	DC    — readdir instantiates child inodes in the VFS caches (§4)
//	CL    — conditional logging of inode creates (§3.3)
//	QRY   — the revised apply-on-query policy (§4)
package betrfs

import (
	"encoding/binary"
	"fmt"
	"time"

	"betrfs/internal/betree"
	"betrfs/internal/keys"
	"betrfs/internal/kmem"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// Config selects the northbound optimizations. Tree-level optimizations
// live in the embedded betree.Config.
type Config struct {
	Tree betree.Config
	// DirRangeDelete issues a directory-wide range delete on rmdir so
	// PacMan can coalesce the per-file deletes beneath it (RG, §4).
	DirRangeDelete bool
	// NlinkChecks maintains in-memory child counts so rmdir's emptiness
	// check avoids a Bε-tree query (RG, §4).
	NlinkChecks bool
	// RedundantDeletes reproduces the v0.4 bug of sending the file
	// delete message from both the unlink and evict_inode hooks (§4).
	RedundantDeletes bool
	// ReaddirInstantiates returns child handles and attributes from
	// readdir so the VFS can populate its caches (DC, §4).
	ReaddirInstantiates bool
	// ConditionalLogging defers inode-create inserts: the create is
	// logged, the log section pinned, and the insert happens at inode
	// write-back (CL, §3.3).
	ConditionalLogging bool
	// CooperativeMem selects the v0.6 allocator interfaces (MLC, §5);
	// consumed by the caller when constructing the kmem allocator.
	CooperativeMem bool
}

// V04Config is BetrFS v0.4: stacked southbound (caller's choice), legacy
// tree heuristics, none of the paper's optimizations.
func V04Config() Config {
	return Config{
		Tree:             betree.V04Config(),
		RedundantDeletes: true,
	}
}

// V06Config is BetrFS v0.6: everything on.
func V06Config() Config {
	return Config{
		Tree:                betree.DefaultConfig(),
		DirRangeDelete:      true,
		NlinkChecks:         true,
		ReaddirInstantiates: true,
		ConditionalLogging:  true,
		CooperativeMem:      true,
	}
}

// FS is the BetrFS northbound; vfs.Handle values are cleaned full paths.
type FS struct {
	env   *sim.Env
	cfg   Config
	store *betree.Store

	// pending tracks conditionally-logged creates not yet inserted, by
	// path; oldest/newest link the same entries in creation order, which
	// is the order of their log pins (see deferredCreate).
	pending        map[string]*deferredCreate
	oldest, newest *deferredCreate
	// nlink tracks per-directory child counts (RG); a directory's count
	// is only authoritative once initialized (at its creation or by a
	// full readdir), mirroring the paper's note that the cached values
	// must be kept coherent with the on-disk link counts.
	nlink      map[string]int
	nlinkKnown map[string]bool
	// unloggedData marks files whose page writes bypassed payload
	// logging since the last checkpoint; their fsync must checkpoint.
	unloggedData map[string]bool

	stats Stats
	m     fsMetrics
}

// fsMetrics holds the northbound layer's pre-resolved metric handles
// (naming convention: betrfs.<noun>.<verb>, see DESIGN.md §8).
type fsMetrics struct {
	metaQuery       *metrics.Counter
	create          *metrics.Counter
	createDeferred  *metrics.Counter
	createForced    *metrics.Counter
	remove          *metrics.Counter
	rename          *metrics.Counter
	renameKeys      *metrics.Counter
	rangeDeleteDir  *metrics.Counter
	emptyNlink      *metrics.Counter
	emptyQuery      *metrics.Counter
	readCorrupt     *metrics.Counter
	fsync           *metrics.Counter
	fsyncCheckpoint *metrics.Counter
}

func resolveFSMetrics(reg *metrics.Registry) fsMetrics {
	return fsMetrics{
		metaQuery:       reg.Counter("betrfs.meta.query"),
		create:          reg.Counter("betrfs.create.count"),
		createDeferred:  reg.Counter("betrfs.create.deferred"),
		createForced:    reg.Counter("betrfs.create.forced"),
		remove:          reg.Counter("betrfs.remove.count"),
		rename:          reg.Counter("betrfs.rename.count"),
		renameKeys:      reg.Counter("betrfs.rename.keys"),
		rangeDeleteDir:  reg.Counter("betrfs.rangedelete.dir"),
		emptyNlink:      reg.Counter("betrfs.emptycheck.nlink"),
		emptyQuery:      reg.Counter("betrfs.emptycheck.query"),
		readCorrupt:     reg.Counter("betrfs.read.corrupt"),
		fsync:           reg.Counter("betrfs.fsync.count"),
		fsyncCheckpoint: reg.Counter("betrfs.fsync.checkpoint"),
	}
}

// deferredCreate is one conditionally-logged create awaiting its tree
// insert. The entries form a doubly linked queue in creation order. Creates
// are serialized and each pins the record it just logged, so that is LSN
// order: the head holds the oldest pin, the one log reclamation stops at.
// Everything that walks all deferred creates walks the queue, never the
// map, because the walk order reaches MSN assignment.
type deferredCreate struct {
	path       string
	attr       vfs.Attr
	unpin      func()
	prev, next *deferredCreate
}

// deferCreate appends a deferred create to the queue and the path index.
func (fs *FS) deferCreate(dc *deferredCreate) {
	fs.pending[dc.path] = dc
	dc.prev = fs.newest
	if fs.newest != nil {
		fs.newest.next = dc
	} else {
		fs.oldest = dc
	}
	fs.newest = dc
}

// settleCreate drops a deferred create from the queue and the path index
// and releases its log pin. The caller has put the inode in the tree, or is
// removing it.
func (fs *FS) settleCreate(dc *deferredCreate) {
	delete(fs.pending, dc.path)
	if dc.prev != nil {
		dc.prev.next = dc.next
	} else {
		fs.oldest = dc.next
	}
	if dc.next != nil {
		dc.next.prev = dc.prev
	} else {
		fs.newest = dc.prev
	}
	dc.prev, dc.next = nil, nil
	dc.unpin()
}

// flushAllPending forces every deferred create into the tree, oldest first.
// A failed flush leaves that create pinned in the log and the walk goes on;
// the first failure is returned.
func (fs *FS) flushAllPending() error {
	var first error
	for dc := fs.oldest; dc != nil; {
		next := dc.next
		if err := fs.flushDeferred(dc); err != nil && first == nil {
			first = err
		}
		dc = next
	}
	return first
}

// Stats counts northbound activity.
type Stats struct {
	MetaQueries           int64
	DeferredCreates       int64
	EmptyDirChecksByQuery int64
	EmptyDirChecksByNlink int64
	DirRangeDeletes       int64
	RenamedKeys           int64
	// CorruptReads counts data-index reads that failed — a checksum
	// mismatch that survived the verified re-read, or a media error —
	// and were surfaced to the VFS as an EIO-class error (DESIGN.md §10).
	CorruptReads int64
}

// New opens a BetrFS instance over the given backend.
func New(env *sim.Env, alloc *kmem.Allocator, cfg Config, backend betree.Backend) (*FS, error) {
	store, err := betree.Open(env, alloc, cfg.Tree, backend)
	if err != nil {
		return nil, err
	}
	fs := &FS{
		env:          env,
		cfg:          cfg,
		store:        store,
		pending:      make(map[string]*deferredCreate),
		nlink:        make(map[string]int),
		nlinkKnown:   map[string]bool{"": true},
		unloggedData: make(map[string]bool),
	}
	reg := env.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	fs.m = resolveFSMetrics(reg)
	// Last resort under log-space pressure: one operation filled the log
	// on its own (a directory rename logs every key it moves), so every
	// deferred create must reach the tree for the checkpoint that follows
	// to reclaim anything. Ordinary traffic is kept away from here by
	// relievePinnedLog. A failed flush leaves its create pinned; the error
	// recurs on the operation that needs the space.
	store.OnLogPressure = func() {
		before := len(fs.pending)
		_ = fs.flushAllPending()
		fs.m.createForced.Add(int64(before - len(fs.pending)))
	}
	return fs, nil
}

// Store exposes the underlying key-value store (tools, tests).
func (fs *FS) Store() *betree.Store { return fs.store }

// writeGate rejects mutating operations once the store has latched a
// persistent device write failure: the mount degrades to read-only
// (errors=remount-ro, DESIGN.md §10) while lookups and reads keep serving
// cached and on-disk data.
func (fs *FS) writeGate() error {
	if err := fs.store.IOErr(); err != nil {
		return fmt.Errorf("betrfs: mount degraded after %v: %w", err, vfs.ErrReadOnly)
	}
	return nil
}

// Stats returns counters.
func (fs *FS) Stats() *Stats { return &fs.stats }

// --- attribute encoding ------------------------------------------------------

func encodeAttr(a vfs.Attr) []byte {
	b := make([]byte, 21)
	if a.Dir {
		b[0] = 1
	}
	binary.BigEndian.PutUint64(b[1:], uint64(a.Size))
	binary.BigEndian.PutUint32(b[9:], uint32(a.Nlink))
	binary.BigEndian.PutUint64(b[13:], uint64(a.Mtime))
	return b
}

func decodeAttr(b []byte) vfs.Attr {
	return vfs.Attr{
		Dir:   b[0] == 1,
		Size:  int64(binary.BigEndian.Uint64(b[1:])),
		Nlink: int(binary.BigEndian.Uint32(b[9:])),
		Mtime: time.Duration(binary.BigEndian.Uint64(b[13:])),
	}
}

// --- vfs.FS implementation ----------------------------------------------------

// Root returns the root handle ("").
func (fs *FS) Root() vfs.Handle { return "" }

// Lookup resolves name within parent by querying the metadata index (or
// the deferred-create table).
func (fs *FS) Lookup(parent vfs.Handle, name string) (vfs.Handle, vfs.Attr, error) {
	path := keys.Join(parent.(string), name)
	if dc, ok := fs.pending[path]; ok {
		return path, dc.attr, nil
	}
	fs.stats.MetaQueries++
	fs.m.metaQuery.Inc()
	v, ok, err := fs.store.Meta().Get(keys.MetaKey(path))
	if err != nil {
		return nil, vfs.Attr{}, err
	}
	if !ok {
		return nil, vfs.Attr{}, vfs.ErrNotExist
	}
	return path, decodeAttr(v), nil
}

// Create makes a file or directory. With conditional logging the insert is
// deferred: the creation is logged, the log section pinned, and the tree
// insert happens when the VFS writes the inode back (§3.3).
func (fs *FS) Create(parent vfs.Handle, name string, dir bool) (vfs.Handle, vfs.Attr, error) {
	if err := fs.writeGate(); err != nil {
		return nil, vfs.Attr{}, err
	}
	path := keys.Join(parent.(string), name)
	fs.m.create.Inc()
	attr := vfs.Attr{Dir: dir, Nlink: 1, Mtime: fs.env.Now()}
	if dir {
		attr.Nlink = 2
	}
	if fs.cfg.ConditionalLogging {
		lsn, err := fs.store.Meta().LogInsertOnly(keys.MetaKey(path), encodeAttr(attr))
		if err != nil {
			return nil, vfs.Attr{}, err
		}
		fs.deferCreate(&deferredCreate{path: path, attr: attr, unpin: fs.store.Log().Pin(lsn)})
		fs.stats.DeferredCreates++
		fs.m.createDeferred.Inc()
		fs.env.Trace("betrfs", "create.deferred", path, 0)
	} else {
		if err := fs.store.Meta().Put(keys.MetaKey(path), encodeAttr(attr), betree.LogAuto); err != nil {
			return nil, vfs.Attr{}, err
		}
	}
	if fs.cfg.NlinkChecks {
		if fs.nlinkKnown[parent.(string)] {
			fs.nlink[parent.(string)]++
		}
		if dir {
			fs.nlink[path] = 0
			fs.nlinkKnown[path] = true
		}
	}
	fs.maybeCheckpoint()
	return path, attr, nil
}

// Remove unlinks a file (single range delete over its blocks plus a point
// delete of its metadata) or removes an empty directory.
func (fs *FS) Remove(parent vfs.Handle, name string, h vfs.Handle, dir bool) error {
	if err := fs.writeGate(); err != nil {
		return err
	}
	path := h.(string)
	fs.m.remove.Inc()
	if dir {
		if err := fs.checkEmpty(path); err != nil {
			return err
		}
	}
	// Deferred create that never reached the tree: cancel it.
	if dc, ok := fs.pending[path]; ok {
		fs.settleCreate(dc)
	}
	if err := fs.store.Meta().Delete(keys.MetaKey(path), betree.LogAuto); err != nil {
		return err
	}
	if fs.cfg.RedundantDeletes {
		// v0.4: a second delete message from the evict_inode hook.
		if err := fs.store.Meta().Delete(keys.MetaKey(path), betree.LogAuto); err != nil {
			return err
		}
	}
	if dir {
		if fs.cfg.DirRangeDelete {
			// RG (§4): a directory-wide range delete whose purpose is
			// to let PacMan gobble the stale per-file messages below.
			lo, hi := keys.SubtreeRange(path)
			if err := fs.store.Meta().DeleteRange(lo, hi, betree.LogAuto); err != nil {
				return err
			}
			if err := fs.store.Data().DeleteRange(lo, hi, betree.LogAuto); err != nil {
				return err
			}
			fs.stats.DirRangeDeletes++
			fs.m.rangeDeleteDir.Inc()
			fs.env.Trace("betrfs", "rangedelete.dir", path, 0)
		}
		delete(fs.nlink, path)
		delete(fs.nlinkKnown, path)
	} else {
		lo, hi := keys.FileDataRange(path)
		if err := fs.store.Data().DeleteRange(lo, hi, betree.LogAuto); err != nil {
			return err
		}
		if fs.cfg.RedundantDeletes {
			if err := fs.store.Data().DeleteRange(lo, hi, betree.LogAuto); err != nil {
				return err
			}
		}
	}
	if fs.cfg.NlinkChecks && fs.nlinkKnown[parent.(string)] {
		fs.nlink[parent.(string)]--
	}
	delete(fs.unloggedData, path)
	fs.maybeCheckpoint()
	return nil
}

// checkEmpty verifies a directory has no children, via the coherent nlink
// counter (RG) or a Bε-tree range query (baseline).
func (fs *FS) checkEmpty(path string) error {
	if fs.cfg.NlinkChecks && fs.nlinkKnown[path] {
		fs.stats.EmptyDirChecksByNlink++
		fs.m.emptyNlink.Inc()
		if fs.nlink[path] > 0 {
			return vfs.ErrNotEmpty
		}
		// Deferred creates under the path also count.
		for p := range fs.pending {
			if keys.Clean(p) != path && isUnder(p, path) {
				return vfs.ErrNotEmpty
			}
		}
		return nil
	}
	fs.stats.EmptyDirChecksByQuery++
	fs.m.emptyQuery.Inc()
	lo, hi := keys.SubtreeRange(path)
	empty := true
	if err := fs.store.Meta().Scan(lo, hi, func(_, _ []byte) bool {
		empty = false
		return false
	}); err != nil {
		return err
	}
	if !empty {
		return vfs.ErrNotEmpty
	}
	for p := range fs.pending {
		if isUnder(p, path) {
			return vfs.ErrNotEmpty
		}
	}
	return nil
}

func isUnder(p, dir string) bool {
	return len(p) > len(dir)+1 && p[:len(dir)] == dir && p[len(dir)] == '/'
}

// Rename moves a file or directory. Range rename is implemented as a
// batched key-range transform — scan, reinsert under the new prefix, range
// delete the old — rather than v0.4's lifted tree surgery; see DESIGN.md
// for the substitution note.
func (fs *FS) Rename(oldParent vfs.Handle, oldName string, h vfs.Handle, newParent vfs.Handle, newName string) (vfs.Handle, error) {
	if err := fs.writeGate(); err != nil {
		return nil, err
	}
	oldPath := h.(string)
	newPath := keys.Join(newParent.(string), newName)
	fs.m.rename.Inc()
	// Flush any deferred create so the rename sees tree state.
	if err := fs.flushPending(oldPath); err != nil {
		return nil, err
	}

	v, ok, err := fs.store.Meta().Get(keys.MetaKey(oldPath))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, vfs.ErrNotExist
	}
	attr := decodeAttr(v)
	if err := fs.store.Meta().Put(keys.MetaKey(newPath), v, betree.LogAuto); err != nil {
		return nil, err
	}
	if err := fs.store.Meta().Delete(keys.MetaKey(oldPath), betree.LogAuto); err != nil {
		return nil, err
	}
	oldEnc := keys.Encode(oldPath)
	newEnc := keys.Encode(newPath)
	if attr.Dir {
		// Move every descendant key in both indexes.
		for _, t := range []*betree.Tree{fs.store.Meta(), fs.store.Data()} {
			lo, hi := keys.SubtreeRange(oldPath)
			type kv struct{ k, v []byte }
			var moved []kv
			if err := t.Scan(lo, hi, func(k, val []byte) bool {
				moved = append(moved, kv{append([]byte{}, k...), append([]byte{}, val...)})
				return true
			}); err != nil {
				return nil, err
			}
			for _, e := range moved {
				if err := t.Put(keys.RewritePrefix(e.k, oldEnc, newEnc), e.v, betree.LogAuto); err != nil {
					return nil, err
				}
				fs.stats.RenamedKeys++
				fs.m.renameKeys.Inc()
			}
			if err := t.DeleteRange(lo, hi, betree.LogAuto); err != nil {
				return nil, err
			}
		}
		// Re-key in-memory child counts.
		for d, n := range fs.nlink {
			if isUnder(d, oldPath) {
				delete(fs.nlink, d)
				fs.nlink[newPath+d[len(oldPath):]] = n
			}
		}
		for d := range fs.nlinkKnown {
			if isUnder(d, oldPath) {
				delete(fs.nlinkKnown, d)
				fs.nlinkKnown[newPath+d[len(oldPath):]] = true
			}
		}
		if n, ok := fs.nlink[oldPath]; ok {
			delete(fs.nlink, oldPath)
			fs.nlink[newPath] = n
		}
		if fs.nlinkKnown[oldPath] {
			delete(fs.nlinkKnown, oldPath)
			fs.nlinkKnown[newPath] = true
		}
	} else {
		lo, hi := keys.FileDataRange(oldPath)
		type kv struct{ k, v []byte }
		var moved []kv
		if err := fs.store.Data().Scan(lo, hi, func(k, val []byte) bool {
			moved = append(moved, kv{append([]byte{}, k...), append([]byte{}, val...)})
			return true
		}); err != nil {
			return nil, err
		}
		for _, e := range moved {
			if err := fs.store.Data().Put(keys.RewritePrefix(e.k, oldEnc, newEnc), e.v, betree.LogAuto); err != nil {
				return nil, err
			}
			fs.stats.RenamedKeys++
			fs.m.renameKeys.Inc()
		}
		if err := fs.store.Data().DeleteRange(lo, hi, betree.LogAuto); err != nil {
			return nil, err
		}
		if fs.unloggedData[oldPath] {
			delete(fs.unloggedData, oldPath)
			fs.unloggedData[newPath] = true
		}
	}
	if fs.cfg.NlinkChecks {
		if fs.nlinkKnown[oldParent.(string)] {
			fs.nlink[oldParent.(string)]--
		}
		if fs.nlinkKnown[newParent.(string)] {
			fs.nlink[newParent.(string)]++
		}
	}
	fs.maybeCheckpoint()
	return newPath, nil
}

// ReadDir scans the metadata index once; the same range query that yields
// the names also carries the children's inodes, so with DC enabled the
// entries come back Known and the VFS instantiates them (§4).
func (fs *FS) ReadDir(h vfs.Handle) ([]vfs.DirEntry, error) {
	path := h.(string)
	dirKey := keys.Encode(path)
	lo, hi := keys.SubtreeRange(path)
	var out []vfs.DirEntry
	if err := fs.store.Meta().Scan(lo, hi, func(k, v []byte) bool {
		if !keys.IsDirectChild(dirKey, k) {
			return true
		}
		childPath := keys.Decode(k)
		_, name := keys.ParentAndName(childPath)
		attr := decodeAttr(v)
		e := vfs.DirEntry{Name: name, Dir: attr.Dir}
		if fs.cfg.ReaddirInstantiates {
			e.Handle = childPath
			e.Attr = attr
			e.Known = true
		}
		out = append(out, e)
		return true
	}); err != nil {
		return nil, err
	}
	// Merge deferred creates that have not reached the tree yet.
	for dc := fs.oldest; dc != nil; dc = dc.next {
		p := dc.path
		parent, name := keys.ParentAndName(p)
		if parent != path {
			continue
		}
		e := vfs.DirEntry{Name: name, Dir: dc.attr.Dir}
		if fs.cfg.ReaddirInstantiates {
			e.Handle = p
			e.Attr = dc.attr
			e.Known = true
		}
		out = append(out, e)
	}
	// A full listing initializes the coherent child count (RG).
	if fs.cfg.NlinkChecks {
		fs.nlink[path] = len(out)
		fs.nlinkKnown[path] = true
	}
	return out, nil
}

// WriteAttr persists inode metadata; for a deferred create this is the
// moment the insert finally enters the tree and the log pin is released.
func (fs *FS) WriteAttr(h vfs.Handle, a vfs.Attr) error {
	if err := fs.writeGate(); err != nil {
		return err
	}
	path := h.(string)
	if err := fs.store.Meta().Put(keys.MetaKey(path), encodeAttr(a), betree.LogAuto); err != nil {
		return err
	}
	if dc, ok := fs.pending[path]; ok {
		fs.settleCreate(dc)
	}
	fs.maybeCheckpoint()
	return nil
}

// flushPending forces the deferred create at path, if there is one, into
// the tree.
func (fs *FS) flushPending(path string) error {
	if dc, ok := fs.pending[path]; ok {
		return fs.flushDeferred(dc)
	}
	return nil
}

// flushDeferred forces a deferred create into the tree. The insert is not
// re-logged: the creation record already sits in the redo log (that is
// what the pin protected), so only the tree needs the message, and the pin
// is dropped only once the message is in. On failure the create stays
// pending and the log stays pinned.
func (fs *FS) flushDeferred(dc *deferredCreate) error {
	if err := fs.store.Meta().Put(keys.MetaKey(dc.path), encodeAttr(dc.attr), betree.LogNone); err != nil {
		return err
	}
	fs.settleCreate(dc)
	return nil
}

// ReadBlocks queries the data index per block; sequential runs set the
// tree's read-ahead hint (§3.2).
func (fs *FS) ReadBlocks(h vfs.Handle, blk int64, pages []*vfs.Page, seq bool) error {
	path := h.(string)
	data := fs.store.Data()
	data.SetSeqHint(seq)
	defer data.SetSeqHint(false)
	for i, pg := range pages {
		v, ok, err := data.Get(keys.DataKey(path, uint64(blk+int64(i))))
		if err != nil {
			// Checksum mismatch that survived the verified re-read, or a
			// media error: surface it as EIO instead of serving zeros.
			fs.stats.CorruptReads++
			fs.m.readCorrupt.Inc()
			fs.env.Trace("betrfs", "read.corrupt", path, blk+int64(i))
			return fmt.Errorf("betrfs: read %s block %d: %w", path, blk+int64(i), err)
		}
		if !ok {
			for j := range pg.Data {
				pg.Data[j] = 0
			}
			continue
		}
		n := copy(pg.Data, v)
		for j := n; j < len(pg.Data); j++ {
			pg.Data[j] = 0
		}
		fs.env.Memcpy(n)
	}
	return nil
}

// pageRef adapts a VFS page to the tree's insert-by-reference interface.
type pageRef struct {
	pg *vfs.Page
}

func (r pageRef) Data() []byte { return r.pg.Data }
func (r pageRef) Len() int     { return len(r.pg.Data) }
func (r pageRef) Release()     { r.pg.Release() }

// WriteBlocks inserts the pages into the data index, one message each —
// the tree batches them into node-sized I/O. With page sharing each page
// is pinned and moves through the tree by reference (§6); without it the
// v0.4 copy-on-ingest applies. Durable (fsync-path) writes are
// payload-logged; background write-back is logged key-only and relies on
// checkpoints (DESIGN.md crash-semantics note).
func (fs *FS) WriteBlocks(h vfs.Handle, blk int64, pgs []*vfs.Page, durable bool) error {
	if err := fs.writeGate(); err != nil {
		return err
	}
	path := h.(string)
	d := betree.LogAuto
	if durable {
		d = betree.LogPayload
	} else {
		fs.unloggedData[path] = true
	}
	for i, pg := range pgs {
		key := keys.DataKey(path, uint64(blk+int64(i)))
		if fs.cfg.Tree.PageSharing {
			pg.Pin()
			if err := fs.store.Data().PutRef(key, pageRef{pg: pg}, d); err != nil {
				// The message may or may not have entered the tree before
				// the abort; the pin is left in place (the page stays
				// immutable) rather than risking a double release.
				return err
			}
		} else {
			data := append([]byte{}, pg.Data...)
			fs.env.Memcpy(len(data))
			if err := fs.store.Data().Put(key, data, d); err != nil {
				return err
			}
		}
	}
	fs.maybeCheckpoint()
	return nil
}

// WritePartial is a blind sub-block update (§2.1): no read, one message.
func (fs *FS) WritePartial(h vfs.Handle, blk int64, off int, data []byte, durable bool) error {
	if err := fs.writeGate(); err != nil {
		return err
	}
	path := h.(string)
	d := betree.LogAuto
	if durable {
		d = betree.LogPayload
	}
	if err := fs.store.Data().Update(keys.DataKey(path, uint64(blk)), off, append([]byte{}, data...), d); err != nil {
		return err
	}
	fs.maybeCheckpoint()
	return nil
}

// SupportsBlindWrites reports true: BetrFS never reads before writing.
func (fs *FS) SupportsBlindWrites() bool { return true }

// TruncateBlocks removes blocks at or beyond fromBlk with one range
// delete.
func (fs *FS) TruncateBlocks(h vfs.Handle, fromBlk int64) error {
	if err := fs.writeGate(); err != nil {
		return err
	}
	path := h.(string)
	lo := keys.DataKey(path, uint64(fromBlk))
	_, hi := keys.FileDataRange(path)
	return fs.store.Data().DeleteRange(lo, hi, betree.LogAuto)
}

// Fsync makes the file durable: a log flush normally; a checkpoint when
// the file has background-written unlogged data. On a degraded store the
// underlying flush fails and the latched EIO comes back, as fsync does
// after a write-back failure in a real kernel.
func (fs *FS) Fsync(h vfs.Handle) error {
	path := h.(string)
	fs.m.fsync.Inc()
	if err := fs.flushPending(path); err != nil {
		return err
	}
	if fs.unloggedData[path] {
		fs.m.fsyncCheckpoint.Inc()
		fs.env.Trace("betrfs", "fsync.checkpoint", path, 0)
		if err := fs.store.Sync(); err != nil {
			return err
		}
		fs.unloggedData = make(map[string]bool)
		return nil
	}
	return fs.store.SyncLog()
}

// Sync makes the whole file system durable.
func (fs *FS) Sync() error {
	if err := fs.flushAllPending(); err != nil {
		return err
	}
	if err := fs.store.Sync(); err != nil {
		return err
	}
	fs.unloggedData = make(map[string]bool)
	return nil
}

// Maintain runs periodic checkpoints.
func (fs *FS) Maintain() {
	fs.maybeCheckpoint()
}

// maybeCheckpoint runs a periodic checkpoint. A checkpoint failure does
// not fail the operation that happened to trigger it: a device write
// error is latched by the store (the next mutating operation degrades to
// ErrReadOnly via the write gate), and a log-full ENOSPC recurs on the
// operation that actually needs the space.
func (fs *FS) maybeCheckpoint() {
	fs.relievePinnedLog()
	_ = fs.store.MaybeCheckpoint()
}

// relievePinnedLog keeps conditional-logging pins from wedging the log
// (DESIGN.md §6). When the log is under pressure and the pins hold so much
// of it that a checkpoint would not be worth running, the oldest deferred
// creates are inserted, which drops their pins, until a checkpoint would
// free half the region; younger creates keep their deferral. It runs
// before the store is asked to checkpoint and outside its writer lock.
func (fs *FS) relievePinnedLog() {
	if fs.oldest == nil || !fs.store.LogPinsBlockReclaim() {
		return
	}
	for fs.oldest != nil && !fs.store.LogHalfReclaimable() {
		// Stop at a failed insert: its pin stays, so nothing behind it can
		// help, and the error recurs on the operation that needs the space.
		if fs.flushDeferred(fs.oldest) != nil {
			return
		}
		fs.m.createForced.Inc()
	}
}

// Scrub verifies every node extent of both trees (vfs.Scrubber). With
// repair set, bad extents with a recoverable image are rewritten to fresh
// space and the old extents retired to the grown-defect list; the new
// mapping is checkpointed before returning (DESIGN.md §10.6).
func (fs *FS) Scrub(repair bool) (vfs.ScrubStats, error) {
	if repair {
		rs, err := fs.store.ScrubRepair()
		return vfs.ScrubStats{
			Checked:      rs.Checked,
			Bad:          rs.Bad,
			Repaired:     rs.Repaired,
			Unrepairable: rs.Unrepairable,
		}, err
	}
	var st vfs.ScrubStats
	for _, rep := range fs.store.ScrubOnline() {
		st.Checked++
		if rep.Err != nil {
			st.Bad++
		}
	}
	return st, nil
}

// DropCaches empties the node cache after a checkpoint.
func (fs *FS) DropCaches() {
	// Best-effort: a failed flush keeps its create pinned in the log.
	_ = fs.flushAllPending()
	if fs.store.DropCleanCaches() == nil {
		fs.unloggedData = make(map[string]bool)
	}
}

var (
	_ vfs.FS       = (*FS)(nil)
	_ vfs.Scrubber = (*FS)(nil)
)
