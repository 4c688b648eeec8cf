package betree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"betrfs/internal/ioerr"
	"betrfs/internal/kmem"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
	"betrfs/internal/stor"
	"betrfs/internal/wal"
)

// Backend provides the named storage files the key-value store needs: the
// Simple File Layer exposes exactly these (§3.1), and the stacked
// southbound emulates them over ext4.
type Backend interface {
	// File returns the named file. Required names: "super", "log",
	// "meta", "data".
	File(name string) stor.File
}

// StoreStats aggregates store-level counters. Fields are updated with
// atomic adds; read them only after the operations of interest have
// quiesced.
type StoreStats struct {
	NodesWritten   int64
	NodesRead      int64
	BasementsRead  int64
	PartialReads   int64
	BytesWritten   int64
	BytesRead      int64
	Checkpoints    int64
	Prefetches     int64
	PrefetchHits   int64
	PacmanScans    int64
	PacmanDrops    int64
	ApplyOnQuery   int64
	Flushes        int64
	LeafSplits     int64
	InternalSplits int64
}

// Store is the in-kernel write-optimized key-value store: two Bε-trees
// (metadata and data indexes) sharing a node cache, a redo log, and a
// checkpointing protocol (§2.2).
type Store struct {
	env   *sim.Env
	alloc *kmem.Allocator
	cfg   Config

	backend Backend
	log     *wal.Log
	superF  stor.File

	meta *Tree
	data *Tree

	cache   *nodeCache
	pending map[cacheKey]*pendingRead
	// inflight holds node writes not yet waited on, so serialization CPU
	// overlaps device writes; barriers drain it. Each entry keeps the
	// image and target extent so a failed write can be relocated and
	// retried (DESIGN.md §10.6).
	inflight []*inflightWrite

	nextMSN        MSN
	generation     uint64
	lastCheckpoint time.Duration
	// OnLogPressure, when set, is invoked before retrying a log append
	// that failed for space, giving the northbound a chance to release
	// every conditional-logging pin that blocks reclamation (§3.3). It is
	// the last resort for a single operation that logs more than the free
	// share of the region; the northbound's own policy keeps ordinary
	// traffic from getting here (DESIGN.md §6). The store calls it with no
	// store lock held, so the hook may use the public mutators.
	OnLogPressure func()
	// unloggedData is set when a bulk value entered the tree without its
	// payload in the log; full durability then requires a checkpoint.
	unloggedData bool

	stats StoreStats
	m     storeMetrics

	// ioErr latches the first device write/flush failure seen anywhere in
	// the store (including background pool tasks, whose panics never reach
	// a caller). Checkpoints and syncs re-raise it so the northbound learns
	// about failures that first fired on a background path. Read errors and
	// ErrNoSpace are never latched: both are recoverable.
	ioErrMu sync.Mutex
	ioErr   error

	// --- concurrency state (DESIGN.md §9) -------------------------------
	//
	// concurrent mirrors cfg.Concurrent. When false — the deterministic
	// single-goroutine mode every golden benchmark runs in — none of the
	// locks below is ever touched: the gated helpers (lockShared etc.)
	// return immediately, so the deterministic execution is the
	// historical lock-free code path, instruction for instruction.
	concurrent bool
	// treeMu is the structure lock: held shared by queries and scans,
	// exclusively by root flushes, splits, checkpoints, and background
	// writeback. Structural tree state (rootID, pivots/children arrays,
	// the block tables, inflight) changes only under the exclusive mode.
	treeMu sync.RWMutex
	// writerMu serializes mutators end-to-end across log append, MSN
	// assignment, and tree insertion, so WAL order, MSN order, and
	// arrival order at every buffer agree (see Tree.logAndInsert).
	// Lock order: writerMu before treeMu.
	writerMu sync.Mutex
	// pendingMu guards the pending prefetch map. Leaf-rank in the lock
	// order: nothing else is acquired while it is held.
	pendingMu sync.Mutex
	// wbQueued dedups background writeback requests.
	wbQueued atomic.Bool
}

// storeMetrics holds the store's registry instruments, resolved once at
// Open so hot paths pay a single atomic add per event.
type storeMetrics struct {
	msgInject     *metrics.Counter
	msgFlush      *metrics.Counter
	msgPushed     *metrics.Counter
	nodeWrite     *metrics.Counter
	nodeRead      *metrics.Counter
	nodePartial   *metrics.Counter
	basementRead  *metrics.Counter
	bytesWritten  *metrics.Counter
	bytesRead     *metrics.Counter
	checkpoint    *metrics.Counter
	prefetchIssue *metrics.Counter
	prefetchHit   *metrics.Counter
	flushRun      *metrics.Counter
	flushRestore  *metrics.Counter
	applyOnQuery  *metrics.Counter
	pacmanScan    *metrics.Counter
	pacmanDrop    *metrics.Counter
	leafSplit     *metrics.Counter
	internalSplit *metrics.Counter
	queryGet      *metrics.Counter
	queryScan     *metrics.Counter
	retryCorrupt  *metrics.Counter

	// bytesReadInterior and bytesReadLeaf split bytesRead by node kind;
	// leaf bytes include whole leaves, leaf shells and basements.
	bytesReadInterior *metrics.Counter
	bytesReadLeaf     *metrics.Counter

	defectGrown    *metrics.Counter
	defectBytes    *metrics.Counter
	defectRelocate *metrics.Counter
	repairRun      *metrics.Counter
	repairNode     *metrics.Counter
	repairFail     *metrics.Counter

	discardCount    *metrics.Counter
	discardBytes    *metrics.Counter
	discardRejected *metrics.Counter

	lockStoreShared *metrics.Counter
	lockStoreExcl   *metrics.Counter
	lockNodeShared  *metrics.Counter
	lockNodeExcl    *metrics.Counter
	wbBackground    *metrics.Counter
	flushBackground *metrics.Counter
}

func resolveStoreMetrics(reg *metrics.Registry) storeMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return storeMetrics{
		msgInject:     reg.Counter("betree.msg.inject"),
		msgFlush:      reg.Counter("betree.msg.flush"),
		msgPushed:     reg.Counter("betree.msg.pushed"),
		nodeWrite:     reg.Counter("betree.node.write"),
		nodeRead:      reg.Counter("betree.node.read"),
		nodePartial:   reg.Counter("betree.node.partialread"),
		basementRead:  reg.Counter("betree.basement.read"),
		bytesWritten:  reg.Counter("betree.bytes.written"),
		bytesRead:     reg.Counter("betree.bytes.read"),
		checkpoint:    reg.Counter("betree.checkpoint.run"),
		prefetchIssue: reg.Counter("betree.prefetch.issue"),
		prefetchHit:   reg.Counter("betree.prefetch.hit"),
		flushRun:      reg.Counter("betree.flush.run"),
		flushRestore:  reg.Counter("betree.flush.restore"),
		applyOnQuery:  reg.Counter("betree.applyonquery.run"),
		pacmanScan:    reg.Counter("betree.pacman.scan"),
		pacmanDrop:    reg.Counter("betree.pacman.drop"),
		leafSplit:     reg.Counter("betree.leaf.split"),
		internalSplit: reg.Counter("betree.internal.split"),
		queryGet:      reg.Counter("betree.query.get"),
		queryScan:     reg.Counter("betree.query.scan"),
		retryCorrupt:  reg.Counter("io.retry.corrupt"),

		bytesReadInterior: reg.Counter("betree.bytes.read.interior"),
		bytesReadLeaf:     reg.Counter("betree.bytes.read.leaf"),

		defectGrown:    reg.Counter("io.defect.grown"),
		defectBytes:    reg.Counter("io.defect.bytes"),
		defectRelocate: reg.Counter("io.defect.relocate.write"),
		repairRun:      reg.Counter("scrub.repair.run"),
		repairNode:     reg.Counter("scrub.repair.node"),
		repairFail:     reg.Counter("scrub.repair.fail"),

		discardCount:    reg.Counter("betree.discard.count"),
		discardBytes:    reg.Counter("betree.discard.bytes"),
		discardRejected: reg.Counter("betree.discard.rejected"),

		lockStoreShared: reg.Counter("betree.lock.store.shared"),
		lockStoreExcl:   reg.Counter("betree.lock.store.excl"),
		lockNodeShared:  reg.Counter("betree.lock.node.shared"),
		lockNodeExcl:    reg.Counter("betree.lock.node.excl"),
		wbBackground:    reg.Counter("flusher.writeback.bg"),
		flushBackground: reg.Counter("flusher.flush.bg"),
	}
}

// --- locking protocol -------------------------------------------------------
//
// Every lock operation in the betree package funnels through the gated
// helpers below. In deterministic mode (cfg.Concurrent off) they are
// no-ops, so single-goroutine runs take zero locks and match the
// historical execution exactly. The betree.lock.* counters therefore read
// zero in deterministic mode and count acquisitions in concurrent mode.

// lockShared takes the structure lock shared (queries, scans).
func (s *Store) lockShared() {
	if !s.concurrent {
		return
	}
	s.treeMu.RLock()
	s.m.lockStoreShared.Inc()
}

func (s *Store) unlockShared() {
	if !s.concurrent {
		return
	}
	s.treeMu.RUnlock()
}

// lockExcl takes the structure lock exclusively (flush, split,
// checkpoint, writeback). Background pool tasks must use tryLockExcl
// instead: a task blocking here could deadlock a checkpoint that drains
// the pool while holding the lock.
func (s *Store) lockExcl() {
	if !s.concurrent {
		return
	}
	s.treeMu.Lock()
	s.m.lockStoreExcl.Inc()
}

// tryLockExcl is the non-blocking lockExcl for pool tasks; the work is
// re-triggerable, so a failed acquisition just drops it.
func (s *Store) tryLockExcl() bool {
	if !s.concurrent {
		return true
	}
	if !s.treeMu.TryLock() {
		return false
	}
	s.m.lockStoreExcl.Inc()
	return true
}

func (s *Store) unlockExcl() {
	if !s.concurrent {
		return
	}
	s.treeMu.Unlock()
}

// latchShared read-latches one node (descent through interior nodes).
// Latches are acquired strictly top-down and only while the structure
// lock is held, shared or exclusive.
func (s *Store) latchShared(n *node) {
	if !s.concurrent {
		return
	}
	n.latch.RLock()
	s.m.lockNodeShared.Inc()
}

func (s *Store) unlatchShared(n *node) {
	if !s.concurrent {
		return
	}
	n.latch.RUnlock()
}

// latchExcl write-latches one node (buffer appends at the root, leaf
// mutation by queries and scans).
func (s *Store) latchExcl(n *node) {
	if !s.concurrent {
		return
	}
	n.latch.Lock()
	s.m.lockNodeExcl.Inc()
}

func (s *Store) unlatchExcl(n *node) {
	if !s.concurrent {
		return
	}
	n.latch.Unlock()
}

type pendingRead struct {
	img  *[]byte // from imagePool
	wait stor.Wait
}

// devCheck raises a device error as an ioerr.Abort to the nearest public
// API guard, latching write/flush failures first so a failure on a
// background path still surfaces at the next checkpoint. nil is a no-op.
func (s *Store) devCheck(err error) {
	if err == nil {
		return
	}
	var de *ioerr.DeviceError
	if errors.As(err, &de) && de.Op != "read" {
		s.latchIOErr(err)
	}
	ioerr.Check(err)
}

func (s *Store) latchIOErr(err error) {
	s.ioErrMu.Lock()
	if s.ioErr == nil {
		s.ioErr = err
	}
	s.ioErrMu.Unlock()
}

// IOErr returns the latched device write/flush failure, if any. The
// northbound uses it to decide read-only degradation.
func (s *Store) IOErr() error {
	s.ioErrMu.Lock()
	defer s.ioErrMu.Unlock()
	return s.ioErr
}

// Open mounts (or formats, if empty) a store on backend.
func Open(env *sim.Env, alloc *kmem.Allocator, cfg Config, backend Backend) (*Store, error) {
	s := &Store{
		env:     env,
		alloc:   alloc,
		cfg:     cfg,
		backend: backend,
		superF:  backend.File("super"),
		pending: make(map[cacheKey]*pendingRead),
		nextMSN: 1,
	}
	reg := env.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s.m = resolveStoreMetrics(reg)
	s.concurrent = cfg.Concurrent
	shards := 1
	if cfg.Concurrent {
		shards = 8
	}
	s.cache = newNodeCache(cfg.CacheBytes, shards, s.writeNode)
	s.cache.deferDirty = cfg.Concurrent
	s.cache.onDirtyPressure = s.requestBackgroundWriteback
	s.cache.mHit = reg.Counter("betree.cache.hit")
	s.cache.mMiss = reg.Counter("betree.cache.miss")
	s.cache.mEvict = reg.Counter("betree.cache.evict")
	s.cache.mEvictDirty = reg.Counter("betree.cache.evictdirty")
	s.cache.mDeferred = reg.Counter("flusher.writeback.deferred")
	s.meta = newTree(s, "meta", backend.File("meta"))
	s.data = newTree(s, "data", backend.File("data"))
	s.meta.bt.onFree = s.meta.discardFreed
	s.data.bt.onFree = s.data.discardFreed

	gen, payload, ok, sbErr := s.readSuperblock()
	if sbErr != nil {
		// A media error is not "no superblock": formatting a fresh store
		// over an unreadable one would destroy data, so fail the mount.
		return nil, fmt.Errorf("betree: superblock unreadable: %w", sbErr)
	}
	if !ok {
		// Fresh store: empty root leaves, then an initial checkpoint so
		// a crash right after format recovers to empty.
		s.log = wal.New(env, backend.File("log"), 1)
		s.meta.formatEmpty()
		s.data.formatEmpty()
		if err := s.Checkpoint(); err != nil {
			return nil, err
		}
		return s, nil
	}
	s.generation = gen
	hint, err := s.loadSuperblock(payload)
	if err != nil {
		return nil, err
	}
	if err := s.recoverFromLog(hint); err != nil {
		return nil, err
	}
	return s, nil
}

// recoverFromLog replays the redo log against the checkpointed state and
// persists the result. Recovery walks on-disk structures that a crash or
// corruption may have damaged, so panics from deep inside the replay
// (write paths treat unreadable nodes as fatal) are converted into an
// Open error: a store that cannot recover reports it instead of taking
// the process down.
func (s *Store) recoverFromLog(hint wal.Hint) (err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case ioerr.Abort:
			// Preserve the wrapped sentinel (ErrIO, ErrNoSpace) so the
			// mount failure stays classifiable.
			err = fmt.Errorf("betree: recovery failed: %w", r.Err)
		default:
			err = fmt.Errorf("betree: recovery failed: %v", r)
		}
	}()
	s.log = wal.New(s.env, s.backend.File("log"), hint.Epoch)
	recs, rerr := wal.Recover(s.env, s.backend.File("log"), hint)
	if rerr != nil {
		// A truncated replay would silently lose logged operations.
		return fmt.Errorf("betree: redo log unreadable: %w", rerr)
	}
	for _, rec := range recs {
		if err := s.replay(rec); err != nil {
			return err
		}
	}
	// Start a fresh log incarnation; the immediate checkpoint persists
	// the replayed state and records the new epoch in the superblock.
	s.log = wal.New(s.env, s.backend.File("log"), hint.Epoch+1)
	return s.Checkpoint()
}

// Env returns the simulation environment.
func (s *Store) Env() *sim.Env { return s.env }

// Meta returns the metadata-index tree.
func (s *Store) Meta() *Tree { return s.meta }

// Data returns the data-index tree.
func (s *Store) Data() *Tree { return s.data }

// Stats returns store counters.
func (s *Store) Stats() *StoreStats { return &s.stats }

// Log exposes the redo log (conditional logging pins).
func (s *Store) Log() *wal.Log { return s.log }

func (s *Store) nextMsn() MSN {
	m := s.nextMSN
	s.nextMSN++
	return m
}

// --- logical operation logging -------------------------------------------

const opRecord wal.RecordType = 1

func (s *Store) logOp(t *Tree, m *Msg, withPayload bool) uint64 {
	treeTag := byte(0)
	if t == s.data {
		treeTag = 1
	}
	var payload []byte
	vlen := 0
	if m.Type == MsgInsert || m.Type == MsgUpdate {
		vlen = m.Val.Len()
		if withPayload {
			payload = m.Val.Bytes()
		}
	}
	rec := make([]byte, 0, 20+len(m.Key)+len(m.EndKey)+len(payload))
	rec = append(rec, treeTag, byte(m.Type))
	var t16 [2]byte
	var t32 [4]byte
	binary.BigEndian.PutUint16(t16[:], uint16(len(m.Key)))
	rec = append(rec, t16[:]...)
	rec = append(rec, m.Key...)
	binary.BigEndian.PutUint16(t16[:], uint16(len(m.EndKey)))
	rec = append(rec, t16[:]...)
	rec = append(rec, m.EndKey...)
	binary.BigEndian.PutUint32(t32[:], uint32(m.Off))
	rec = append(rec, t32[:]...)
	binary.BigEndian.PutUint32(t32[:], uint32(vlen))
	rec = append(rec, t32[:]...)
	if withPayload {
		rec = append(rec, 1)
		rec = append(rec, payload...)
	} else {
		rec = append(rec, 0)
		s.unloggedData = true
	}
	lsn, err := s.log.Append(opRecord, rec)
	if err == wal.ErrLogFull {
		s.releaseLogPins()
		// checkpointLocked, not Checkpoint: in concurrent mode the caller
		// already holds writerMu (logAndInsert / LogInsertOnly).
		s.checkpointLocked()
		lsn, err = s.log.Append(opRecord, rec)
	}
	if err == wal.ErrLogFull {
		// Still full after a checkpoint reclaimed everything reclaimable:
		// the record cannot fit — a space condition, not a bug.
		ioerr.Check(fmt.Errorf("betree: log full after checkpoint: %w", ioerr.ErrNoSpace))
	}
	s.devCheck(err)
	return lsn
}

// releaseLogPins runs the OnLogPressure hook for a mutator that found the
// log full. The caller holds writerMu in concurrent mode and the hook
// inserts through the public mutators, which take it, so it is dropped
// around the call: the blocked operation has been assigned neither an LSN
// nor an MSN yet, so whatever the hook inserts simply orders before it.
func (s *Store) releaseLogPins() {
	if s.OnLogPressure == nil {
		return
	}
	if s.concurrent {
		s.writerMu.Unlock()
		defer s.writerMu.Lock()
	}
	s.OnLogPressure()
}

func (s *Store) replay(rec wal.Record) error {
	if rec.Type != opRecord {
		return nil
	}
	p := rec.Payload
	if len(p) < 2 {
		return fmt.Errorf("betree: short log record")
	}
	t := s.meta
	if p[0] == 1 {
		t = s.data
	}
	mt := MsgType(p[1])
	p = p[2:]
	klen := int(binary.BigEndian.Uint16(p))
	key := append([]byte{}, p[2:2+klen]...)
	p = p[2+klen:]
	eklen := int(binary.BigEndian.Uint16(p))
	ekey := append([]byte{}, p[2:2+eklen]...)
	p = p[2+eklen:]
	off := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	vlen := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	hasPayload := p[0] == 1
	p = p[1:]
	m := &Msg{Type: mt, MSN: s.nextMsn(), Key: key, EndKey: ekey, Off: off}
	switch mt {
	case MsgInsert, MsgUpdate:
		if !hasPayload {
			// Bulk value never payload-logged: its durability was
			// checkpoint-based, so the checkpointed tree already has
			// the newest durable version. Skip.
			return nil
		}
		if len(p) < vlen {
			return fmt.Errorf("betree: short log payload")
		}
		m.Val = InlineValue(append([]byte{}, p[:vlen]...))
	}
	t.insertMsg(m)
	return nil
}

// --- node I/O -------------------------------------------------------------

// nodeImage is a serialized node between the CPU half of a write
// (prepareNodeImage) and the submission half (finishNodeWrite).
type nodeImage struct {
	buf  *kmem.Buf
	data []byte
}

// writeNode serializes and writes a dirty node copy-on-write, charging the
// allocator costs of assembling the serialization buffer. The two halves
// are split so the checkpoint pipeline can fan serialization out across
// the flusher pool while keeping block placement and write submission in
// deterministic order on the coordinating goroutine (writeDirtyNodes).
//
// A dirty leaf can reach write-back half-loaded: a cold point read caches a
// leaf with one basement resident, and a flush into it loads only the
// basements its messages land in. The new image must carry the untouched
// basements too, so they are read in first — here, on the coordinating
// goroutine, because the read touches the device and the cache accounting.
func (s *Store) writeNode(t *Tree, n *node) {
	t.ensureAllBasements(n)
	s.finishNodeWrite(t, n, s.prepareNodeImage(t, n))
}

// prepareNodeImage is the CPU half: allocate the serialization buffer,
// serialize, compress. It touches no structural store state, so the
// checkpoint pipeline may run several concurrently (the allocator and the
// clock are both safe for concurrent use, and their charges commute).
func (s *Store) prepareNodeImage(t *Tree, n *node) nodeImage {
	// Serialization buffer life cycle: the legacy code path grows a
	// buffer by doubling as it serializes (paying realloc copies); the
	// cooperative path negotiates the final size up front (§5).
	var buf *kmem.Buf
	if s.alloc.Cooperative() {
		buf = s.alloc.AllocUsable(n.memSize() + 512)
	} else {
		buf = s.alloc.Alloc(64 << 10)
		buf = s.alloc.GrowDoubling(buf, n.memSize()+512, 64<<10)
	}
	data := serializeNode(s.env, &s.cfg, n)
	if s.cfg.Compression {
		data = compressNode(s.env, data)
	}
	return nodeImage{buf: buf, data: data}
}

// inflightWrite is one submitted node-image write. The image and target
// extent are retained so a failed write can be relocated to fresh space
// and retried before the sticky write error latches.
type inflightWrite struct {
	t        *Tree
	id       nodeID
	ext      extent
	data     []byte
	wait     stor.Wait
	attempts int
}

// finishNodeWrite is the submission half: place the image in the block
// table and hand it to the device. It mutates structural state (block
// table, inflight) and therefore runs under the exclusive structure lock.
func (s *Store) finishNodeWrite(t *Tree, n *node, img nodeImage) {
	data := img.data
	ext, err := t.bt.allocate(int64(len(data)))
	if err != nil {
		// Wraps ErrNoSpace: the node file is full, which is recoverable
		// (deletes make space) and must not crash or latch read-only.
		s.alloc.FreeSized(img.buf)
		ioerr.Check(err)
	}
	t.bt.place(n.id, ext)
	s.inflight = append(s.inflight, &inflightWrite{
		t: t, id: n.id, ext: ext, data: data,
		wait: t.f.SubmitWrite(data, ext.off),
	})
	if len(s.inflight) > 8 {
		w := s.inflight[0]
		s.inflight = s.inflight[1:]
		s.devCheck(s.completeWrite(w))
	}
	s.alloc.FreeSized(img.buf)
	n.dirty.Store(false)
	atomic.AddInt64(&s.stats.NodesWritten, 1)
	atomic.AddInt64(&s.stats.BytesWritten, int64(len(data)))
	s.m.nodeWrite.Inc()
	s.m.bytesWritten.Add(int64(len(data)))
	s.env.Trace("betree", "node.write", t.name, int64(len(data)))
}

// completeWrite waits for one node write and, on a device write error,
// runs write-path relocation (DESIGN.md §10.6): the failed extent is
// retired to the grown-defect list and the same image is rewritten at
// freshly allocated space, up to cfg.RelocateAttempts times. The final
// error — device failure that outlasted the attempt bound, or allocator
// exhaustion during relocation — is returned for the caller to latch,
// preserving the historical errors=remount-ro degradation. Runs under
// the exclusive structure lock (it mutates the block table).
func (s *Store) completeWrite(w *inflightWrite) error {
	err := w.wait()
	for err != nil {
		var de *ioerr.DeviceError
		if !errors.As(err, &de) || de.Op != "write" || de.Transient {
			break // not a media write error (or still transient after RetryDev)
		}
		if w.attempts >= s.cfg.RelocateAttempts {
			break // relocation disabled or attempt bound exhausted
		}
		if cur, ok := w.t.bt.lookup(w.id); !ok || cur != w.ext {
			// The node was rewritten or deleted while this write was in
			// flight; the failed extent backs nothing live, so there is
			// nothing to remap — surface the error.
			break
		}
		w.attempts++
		ne, rerr := w.t.bt.relocate(w.id, int64(len(w.data)))
		if rerr != nil {
			break // node file full: keep the mapping intact, latch the EIO
		}
		s.m.defectGrown.Inc()
		s.m.defectBytes.Add(w.ext.len)
		s.m.defectRelocate.Inc()
		s.env.Trace("betree", "node.relocate", w.t.name, w.ext.off)
		w.ext = ne
		err = w.t.f.SubmitWrite(w.data, ne.off)()
	}
	if err == nil {
		w.data = nil
	}
	return err
}

// readNode fetches a node image from disk. If partialKey is non-nil and
// the node is a leaf, only the header region and the basement containing
// partialKey are read and materialized (§2.2 basement nodes). A corrupted
// or torn image surfaces an error wrapping ErrChecksum rather than
// garbage or a panic.
func (s *Store) readNode(t *Tree, id nodeID, partialKey []byte) (_ *node, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("betree: %s node %d: %w", t.name, id, err)
		}
	}()
	ext, ok := t.bt.lookup(id)
	if !ok {
		return nil, errors.New("no extent")
	}
	key := cacheKey{t, id}
	s.pendingMu.Lock()
	pr, havePending := s.pending[key]
	if havePending {
		delete(s.pending, key)
	}
	s.pendingMu.Unlock()
	if havePending {
		// A prefetch is in flight: wait for it instead of re-reading. A
		// failed prefetch read falls back to a fresh synchronous read
		// (decodeFull re-reads on checksum failure too).
		if werr := pr.wait(); werr != nil {
			if rerr := t.f.SubmitRead(*pr.img, ext.off)(); rerr != nil {
				return nil, rerr
			}
		}
		atomic.AddInt64(&s.stats.PrefetchHits, 1)
		s.m.prefetchHit.Inc()
		return s.decodeFull(t, ext, pr.img)
	}

	if partialKey != nil {
		// Header region first, into a buffer of just that size.
		hlen := int64(headerRegion)
		if hlen > ext.len {
			hlen = ext.len
		}
		hdr := make([]byte, hlen)
		if rerr := t.f.SubmitRead(hdr, ext.off)(); rerr != nil {
			return nil, rerr
		}
		compressed := s.cfg.Compression && binary.BigEndian.Uint32(hdr) == compressedMagic
		if !compressed && binary.BigEndian.Uint32(hdr[4:]) == nodeMagic && binary.BigEndian.Uint32(hdr[8:]) == 0 {
			if basements, _, err := decodeLeafShell(hdr); err == nil {
				n := &node{id: id, height: 0, basements: basements, pageBase: pageBase(hdr)}
				atomic.AddInt64(&s.stats.PartialReads, 1)
				s.m.nodePartial.Inc()
				s.countNodeRead(n, hlen)
				if err := s.loadBasement(t, n, ext, n.basementFor(s.env, partialKey)); err != nil {
					return nil, err
				}
				return n, nil
			}
		}
		// Compressed nodes cannot be partially read, and a shell that did
		// not fit in the header region (or failed its checksum) leaves the
		// decision to the whole-image checksum: read the remainder.
		img := getImage(ext.len)
		copy(*img, hdr)
		if ext.len > hlen {
			if rerr := t.f.SubmitRead((*img)[hlen:], ext.off+hlen)(); rerr != nil {
				return nil, rerr
			}
		}
		return s.decodeFull(t, ext, img)
	}

	img := getImage(ext.len)
	if rerr := t.f.SubmitRead(*img, ext.off)(); rerr != nil {
		return nil, rerr
	}
	return s.decodeFull(t, ext, img)
}

// imagePool recycles full node-image read buffers (*[]byte). Reuse is safe
// because decoding copies every key and value out of the image.
var imagePool sync.Pool

// getImage returns a buffer of n bytes, pooled when one large enough is
// available. Its contents are stale: callers fill every byte.
func getImage(n int64) *[]byte {
	if p, _ := imagePool.Get().(*[]byte); p != nil && int64(cap(*p)) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n)
	return &b
}

// countNodeRead counts one node read of bytes off the device.
func (s *Store) countNodeRead(n *node, bytes int64) {
	atomic.AddInt64(&s.stats.NodesRead, 1)
	s.m.nodeRead.Inc()
	s.countBytesRead(n, bytes)
}

// countBytesRead adds bytes read for node n to betree.bytes.read and to
// its interior or leaf share.
func (s *Store) countBytesRead(n *node, bytes int64) {
	atomic.AddInt64(&s.stats.BytesRead, bytes)
	s.m.bytesRead.Add(bytes)
	if n.isLeaf() {
		s.m.bytesReadLeaf.Add(bytes)
	} else {
		s.m.bytesReadInterior.Add(bytes)
	}
}

// decodeImage decompresses and deserializes a full node image.
func (s *Store) decodeImage(data []byte) (*node, error) {
	raw, err := maybeDecompressNode(s.env, data)
	if err != nil {
		return nil, err
	}
	return deserializeNode(s.env, &s.cfg, raw)
}

// decodeFull decodes the full node image in img, counts the read and
// returns img to imagePool. A checksum failure re-reads the extent once:
// a bit flip picked up in transfer (not on the medium) yields a clean
// second read. Re-reads count in io.retry.corrupt; a second failure is
// persistent corruption and surfaces ErrChecksum.
func (s *Store) decodeFull(t *Tree, ext extent, img *[]byte) (*node, error) {
	defer imagePool.Put(img)
	n, err := s.decodeImage(*img)
	if err != nil && errors.Is(err, ErrChecksum) {
		s.m.retryCorrupt.Inc()
		if rerr := t.f.SubmitRead(*img, ext.off)(); rerr != nil {
			return nil, rerr
		}
		n, err = s.decodeImage(*img)
	}
	if err != nil {
		return nil, err
	}
	s.countNodeRead(n, ext.len)
	return n, nil
}

// loadBasement materializes basement bi of cached leaf n with a partial
// disk read: its small section and its page range, read into one buffer
// of exactly their size. The basement's directory checksum is verified,
// and a failure is re-read once into the same buffer (see decodeFull)
// before being reported as corruption.
func (s *Store) loadBasement(t *Tree, n *node, ext extent, bi int) error {
	b := n.basements[bi]
	if b.loaded {
		return nil
	}
	fail := func(err error) error {
		return fmt.Errorf("betree: %s node %d basement %d: %w", t.name, n.id, bi, err)
	}
	if err := b.checkSpan(ext.len); err != nil {
		return fail(err)
	}
	buf := make([]byte, b.diskLen+b.pageLen)
	small, pages := buf[:b.diskLen], buf[b.diskLen:]
	readRanges := func() error {
		if rerr := t.f.SubmitRead(small, ext.off+int64(b.diskOff))(); rerr != nil {
			return rerr
		}
		if b.pageLen > 0 {
			return t.f.SubmitRead(pages, ext.off+int64(b.pageOff))()
		}
		return nil
	}
	if rerr := readRanges(); rerr != nil {
		return fail(rerr)
	}
	s.env.Checksum(b.diskLen + b.pageLen)
	s.env.Serialize(b.diskLen)
	err := decodeBasement(small, pages, b, n.pageBase)
	if err != nil && errors.Is(err, ErrChecksum) {
		s.m.retryCorrupt.Inc()
		if rerr := readRanges(); rerr != nil {
			return fail(rerr)
		}
		err = decodeBasement(small, pages, b, n.pageBase)
	}
	if err != nil {
		return fail(err)
	}
	atomic.AddInt64(&s.stats.BasementsRead, 1)
	s.m.basementRead.Inc()
	s.countBytesRead(n, int64(len(buf)))
	s.cache.resize(t, n)
	return nil
}

// prefetch issues an asynchronous read of a node (tree-level read-ahead,
// §3.2). The read overlaps with the caller's CPU work and is claimed by a
// later readNode.
func (s *Store) prefetch(t *Tree, id nodeID) {
	if !s.cfg.ReadAhead {
		return
	}
	key := cacheKey{t, id}
	s.pendingMu.Lock()
	_, inflight := s.pending[key]
	s.pendingMu.Unlock()
	if inflight {
		return
	}
	if _, ok := s.cache.lookup(t, id, false); ok {
		return
	}
	ext, ok := t.bt.lookup(id)
	if !ok {
		return
	}
	img := getImage(ext.len)
	wait := t.f.SubmitRead(*img, ext.off)
	s.pendingMu.Lock()
	if _, raced := s.pending[key]; raced {
		// Another goroutine issued the same prefetch between our check
		// and the submit: keep theirs, absorb ours (the duplicate's data
		// is discarded, so its error is irrelevant).
		s.pendingMu.Unlock()
		_ = wait()
		imagePool.Put(img)
		return
	}
	s.pending[key] = &pendingRead{img: img, wait: wait}
	s.pendingMu.Unlock()
	atomic.AddInt64(&s.stats.Prefetches, 1)
	s.m.prefetchIssue.Inc()
}

// --- durability ------------------------------------------------------------

// drainWrites waits for all in-flight node writes, relocating failed
// ones (completeWrite). Every wait is drained even after a failure (the
// completions must not leak); the first unrecovered error is raised
// afterwards.
func (s *Store) drainWrites() {
	var first error
	for _, w := range s.inflight {
		if err := s.completeWrite(w); err != nil && first == nil {
			first = err
		}
	}
	s.inflight = s.inflight[:0]
	s.devCheck(first)
}

// SyncLog flushes the redo log (the fsync fast path).
func (s *Store) SyncLog() (err error) {
	defer ioerr.Guard(&err)
	s.devCheck(s.log.Flush())
	return nil
}

// Sync makes everything durable: the log is flushed, and if bulk data
// entered the tree without payload logging, a checkpoint persists it.
func (s *Store) Sync() (err error) {
	defer ioerr.Guard(&err)
	if s.concurrent {
		s.writerMu.Lock()
		defer s.writerMu.Unlock()
	}
	s.devCheck(s.log.Flush())
	if s.unloggedData {
		s.checkpointLocked()
	}
	return nil
}

// Log-space policy (DESIGN.md §6). Every threshold is a fixed fraction of
// the log region. The log is under pressure once less than a fifth of it is
// free. A checkpoint is run for log space only when it would free at least a
// quarter of the region, so log-space checkpoints are at least a quarter
// region of appends apart however many conditional-logging pins are
// outstanding. When pins keep the reclaimable share below that, the
// northbound releases its oldest pins until half the region is reclaimable
// (LogPinsBlockReclaim, LogHalfReclaimable) and the next MaybeCheckpoint
// fires. If a pin really cannot be released the log fills, and logOp's
// ErrLogFull path reports ErrNoSpace.

func (s *Store) logUnderPressure() bool {
	return s.log.FreeBytes() < s.log.LiveBytes()/4
}

// checkpointFrees reports whether a checkpoint now would free at least one
// part in div of the log region.
func (s *Store) checkpointFrees(div int64) bool {
	return s.log.Reclaimable() >= s.log.Capacity()/div
}

// LogPinsBlockReclaim reports that the log is under pressure and pins hold
// so much of it that a checkpoint now would free less than a quarter of the
// region — the state in which MaybeCheckpoint does not run one.
func (s *Store) LogPinsBlockReclaim() bool {
	return s.logUnderPressure() && !s.checkpointFrees(4)
}

// LogHalfReclaimable reports that a checkpoint now would free at least half
// the log region: the point at which the northbound stops releasing pins.
func (s *Store) LogHalfReclaimable() bool {
	return s.checkpointFrees(2)
}

// MaybeCheckpoint runs a checkpoint if the period elapsed, or if log space
// is low and the checkpoint would free a worthwhile share of it; the
// northbound calls it on its operation paths.
func (s *Store) MaybeCheckpoint() (err error) {
	defer ioerr.Guard(&err)
	if s.concurrent {
		s.writerMu.Lock()
		defer s.writerMu.Unlock()
	}
	if s.env.Now()-s.lastCheckpoint >= s.cfg.CheckpointPeriod ||
		(s.logUnderPressure() && s.checkpointFrees(4)) {
		s.checkpointLocked()
	}
	return nil
}

// Checkpoint writes all dirty nodes copy-on-write, commits a new
// superblock generation, recycles old extents, and reclaims log space
// (§2.2 crash consistency).
func (s *Store) Checkpoint() (err error) {
	defer ioerr.Guard(&err)
	if s.concurrent {
		s.writerMu.Lock()
		defer s.writerMu.Unlock()
	}
	s.checkpointLocked()
	return nil
}

// checkpointLocked is the checkpoint body. Concurrent-mode callers hold
// writerMu (no mutator is mid-flight). It drains the flusher pool BEFORE
// taking the structure lock: pool tasks only TryLock and drop on failure,
// so the drain cannot deadlock, and afterwards no background task can be
// holding store state while we write the superblock.
func (s *Store) checkpointLocked() {
	if s.concurrent && s.env.Pool != nil {
		s.env.Pool.Drain()
	}
	// A write failure latched on a background path (pool writeback, whose
	// panics reach no caller) resurfaces at the next checkpoint, so the
	// northbound always learns about it.
	ioerr.Check(s.IOErr())
	s.lockExcl()
	defer s.unlockExcl()
	checkpointLSN := s.log.NextLSN()
	s.devCheck(s.log.Flush())
	for _, t := range []*Tree{s.meta, s.data} {
		s.writeDirtyNodes(t)
	}
	s.drainWrites()
	for _, t := range []*Tree{s.meta, s.data} {
		s.devCheck(t.f.Flush())
	}
	// The superblock records the recovery hint the reclaim below will
	// leave, but the log is reclaimed only once that superblock is durable:
	// until then the previous superblock's hint is the one recovery would
	// use, and the space it points into must not be reused. No pin is
	// released in between: pins are dropped on the northbound's operation
	// paths, and those are the paths that run checkpoints (one goroutine,
	// or serialized by the mount lock).
	s.writeSuperblock(s.log.HintAfterReclaim(checkpointLSN))
	// The superblock just made durable, together with the one still in
	// the other slot, bounds every state recovery can select. Log space
	// below the OLDER slot's recovery hint and extents free across both
	// generations can now be handed back to the device as TRIMs.
	s.log.DiscardReclaimed()
	for _, t := range []*Tree{s.meta, s.data} {
		t.bt.checkpointCommitted()
		t.flushTrimQueue(s.generation)
	}
	s.log.Reclaim(checkpointLSN)
	s.unloggedData = false
	s.lastCheckpoint = s.env.Now()
	atomic.AddInt64(&s.stats.Checkpoints, 1)
	s.m.checkpoint.Inc()
	s.env.Trace("betree", "checkpoint", "", int64(checkpointLSN))
}

// writeDirtyNodes writes back every dirty cached node of tree t. With
// more than one flusher worker the CPU half (serialize, compress,
// checksum) fans out across the pool and the submission half runs on this
// goroutine in sweep order; with one worker (deterministic mode) it is
// the historical sequential loop.
func (s *Store) writeDirtyNodes(t *Tree) {
	dirty := s.cache.dirtyNodes(t)
	pool := s.env.Pool
	if !s.concurrent || pool == nil || pool.Workers() <= 1 || len(dirty) <= 1 {
		for _, n := range dirty {
			s.writeNode(t, n)
		}
		return
	}
	imgs := make([]nodeImage, len(dirty))
	var wg sync.WaitGroup
	for i, n := range dirty {
		i, n := i, n
		t.ensureAllBasements(n) // see writeNode
		wg.Add(1)
		pool.Submit(func() {
			defer wg.Done()
			imgs[i] = s.prepareNodeImage(t, n)
		})
	}
	wg.Wait()
	for i, n := range dirty {
		s.finishNodeWrite(t, n, imgs[i])
	}
}

// --- superblock -------------------------------------------------------------

const (
	superMagic    = 0x5bee7f5b
	superSlotSize = 4 << 20
)

func (s *Store) writeSuperblock(hint wal.Hint) {
	payload := make([]byte, 0, 1<<20)
	var t8 [8]byte
	put64 := func(v uint64) {
		binary.BigEndian.PutUint64(t8[:], v)
		payload = append(payload, t8[:]...)
	}
	put64(uint64(s.nextMSN))
	put64(uint64(hint.Offset))
	put64(hint.LSN)
	put64(uint64(hint.Epoch))
	for _, t := range []*Tree{s.meta, s.data} {
		put64(uint64(t.rootID))
		put64(uint64(t.nextNodeID))
		bt := t.bt.serialize()
		put64(uint64(len(bt)))
		payload = append(payload, bt...)
	}
	s.generation++
	blob := make([]byte, 0, len(payload)+24)
	var t4 [4]byte
	binary.BigEndian.PutUint32(t4[:], superMagic)
	blob = append(blob, t4[:]...)
	binary.BigEndian.PutUint64(t8[:], s.generation)
	blob = append(blob, t8[:]...)
	binary.BigEndian.PutUint32(t4[:], uint32(len(payload)))
	blob = append(blob, t4[:]...)
	blob = append(blob, payload...)
	binary.BigEndian.PutUint32(t4[:], crc32.ChecksumIEEE(blob))
	blob = append(blob, t4[:]...)
	if len(blob) > superSlotSize {
		panic("betree: superblock exceeds slot")
	}
	s.env.Serialize(len(blob))
	s.env.Checksum(len(blob))
	slot := int64(s.generation%2) * superSlotSize
	s.devCheck(s.superF.WriteAt(blob, slot))
	s.devCheck(s.superF.Flush())
}

// readSuperblock returns the newest valid superblock generation. A device
// read error fails the mount rather than counting the slot invalid: an
// unreadable slot may hold the newer generation, and "no superblock" would
// make Open format a fresh store over existing data.
func (s *Store) readSuperblock() (gen uint64, payload []byte, ok bool, err error) {
	for slot := int64(0); slot < 2; slot++ {
		hdr := make([]byte, 16)
		if rerr := s.superF.ReadAt(hdr, slot*superSlotSize); rerr != nil {
			return 0, nil, false, rerr
		}
		if binary.BigEndian.Uint32(hdr) != superMagic {
			continue
		}
		g := binary.BigEndian.Uint64(hdr[4:])
		plen := int(binary.BigEndian.Uint32(hdr[12:]))
		if plen > superSlotSize {
			continue
		}
		blob := make([]byte, 16+plen+4)
		if rerr := s.superF.ReadAt(blob, slot*superSlotSize); rerr != nil {
			return 0, nil, false, rerr
		}
		s.env.Checksum(len(blob))
		if crc32.ChecksumIEEE(blob[:16+plen]) != binary.BigEndian.Uint32(blob[16+plen:]) {
			continue
		}
		if !ok || g > gen {
			gen = g
			payload = blob[16 : 16+plen]
			ok = true
		}
	}
	return gen, payload, ok, nil
}

func (s *Store) loadSuperblock(payload []byte) (wal.Hint, error) {
	if len(payload) < 24 {
		return wal.Hint{}, fmt.Errorf("betree: short superblock")
	}
	get64 := func() uint64 {
		v := binary.BigEndian.Uint64(payload)
		payload = payload[8:]
		return v
	}
	s.nextMSN = MSN(get64())
	hint := wal.Hint{Offset: int64(get64()), LSN: get64()}
	hint.Epoch = uint32(get64())
	for _, t := range []*Tree{s.meta, s.data} {
		t.rootID = nodeID(get64())
		t.nextNodeID = nodeID(get64())
		btLen := int(get64())
		bt, err := loadBlockTable(t.f.Capacity(), payload[:btLen])
		if err != nil {
			return wal.Hint{}, err
		}
		payload = payload[btLen:]
		t.bt = bt
		bt.onFree = t.discardFreed
	}
	return hint, nil
}

// DropCleanCaches checkpoints and then empties the node cache and pending
// prefetches — the cold-cache state benchmarks start from.
func (s *Store) DropCleanCaches() (err error) {
	defer ioerr.Guard(&err)
	if s.concurrent {
		s.writerMu.Lock()
		defer s.writerMu.Unlock()
	}
	s.checkpointLocked()
	s.pendingMu.Lock()
	for k, pr := range s.pending {
		_ = pr.wait() // prefetched data is being discarded
		imagePool.Put(pr.img)
		delete(s.pending, k)
	}
	s.pendingMu.Unlock()
	s.cache.dropAll()
	return nil
}
