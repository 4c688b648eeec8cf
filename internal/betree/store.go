package betree

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"betrfs/internal/codec"
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

	m storeMetrics

	// ioErr latches the first device write/flush failure seen anywhere in
	// the store (including background pool tasks, whose panics never reach
	// a caller). Checkpoints and syncs re-raise it so the northbound learns
	// about failures that first fired on a background path. Read errors and
	// ErrNoSpace are never latched: both are recoverable.
	ioErrMu sync.Mutex
	ioErr   error

	// --- concurrency state (DESIGN.md §9) -------------------------------
	//
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
	// imagesOut counts the node images decoded values borrow (ImagesOut).
	imagesOut atomic.Int64
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
	partitionRead *metrics.Counter
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

	// bytesReadInterior and bytesReadLeaf split bytesRead by node kind:
	// whole nodes, shells, and basements or child-buffer partitions.
	bytesReadInterior *metrics.Counter
	bytesReadLeaf     *metrics.Counter

	// bytesWrittenClean counts the written image bytes of basements and
	// child buffers that had not changed since they were loaded or last
	// written: what partition-granular write-back would not rewrite.
	bytesWrittenClean *metrics.Counter

	defectGrown    *metrics.Counter
	defectBytes    *metrics.Counter
	defectRelocate *metrics.Counter
	repairRun      *metrics.Counter
	repairNode     *metrics.Counter
	repairFail     *metrics.Counter
	scrubBytesRead *metrics.Counter

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
		partitionRead: reg.Counter("betree.partition.read"),
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
		bytesWrittenClean: reg.Counter("betree.bytes.written.clean"),

		defectGrown:    reg.Counter("io.defect.grown"),
		defectBytes:    reg.Counter("io.defect.bytes"),
		defectRelocate: reg.Counter("io.defect.relocate.write"),
		repairRun:      reg.Counter("scrub.repair.run"),
		repairNode:     reg.Counter("scrub.repair.node"),
		repairFail:     reg.Counter("scrub.repair.fail"),
		scrubBytesRead: reg.Counter("scrub.bytes.read"),

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
// Every lock operation in the betree package funnels through the helpers
// below, which count each acquisition in betree.lock.*. Every store takes
// them, whatever cfg.Concurrent says, so the deterministic runs behind the
// golden cells execute the protocol a served store does; a lock charges
// no simulated time.

// lockShared takes the structure lock shared (queries, scans).
func (s *Store) lockShared() {
	s.treeMu.RLock()
	s.m.lockStoreShared.Inc()
}

func (s *Store) unlockShared() { s.treeMu.RUnlock() }

// lockExcl takes the structure lock exclusively (flush, split,
// checkpoint, writeback). Background pool tasks must use tryLockExcl
// instead: a task blocking here could deadlock a checkpoint that drains
// the pool while holding the lock.
func (s *Store) lockExcl() {
	s.treeMu.Lock()
	s.m.lockStoreExcl.Inc()
}

// tryLockExcl is the non-blocking lockExcl for pool tasks; the work is
// re-triggerable, so a failed acquisition just drops it.
func (s *Store) tryLockExcl() bool {
	if !s.treeMu.TryLock() {
		return false
	}
	s.m.lockStoreExcl.Inc()
	return true
}

func (s *Store) unlockExcl() { s.treeMu.Unlock() }

// latchShared read-latches one node (descent through interior nodes).
// Latches are acquired strictly top-down and only while the structure
// lock is held, shared or exclusive.
func (s *Store) latchShared(n *node) {
	n.latch.RLock()
	s.m.lockNodeShared.Inc()
}

func (s *Store) unlatchShared(n *node) { n.latch.RUnlock() }

// latchExcl write-latches one node (buffer appends at the root, leaf
// mutation by queries and scans).
func (s *Store) latchExcl(n *node) {
	n.latch.Lock()
	s.m.lockNodeExcl.Inc()
}

func (s *Store) unlatchExcl(n *node) { n.latch.Unlock() }

// latchWalk latches a node on a query or scan descent: a leaf exclusive
// (the walk materializes its basements), an interior node shared.
func (s *Store) latchWalk(n *node) {
	if n.isLeaf() {
		s.latchExcl(n)
	} else {
		s.latchShared(n)
	}
}

type pendingRead struct {
	img  *image
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
	// The cache's shape is all Concurrent picks here: eight lock stripes
	// with dirty write-back deferred to the flusher, or one stripe whose
	// evictions write back inline (DESIGN.md §9).
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

// Meta returns the metadata-index tree.
func (s *Store) Meta() *Tree { return s.meta }

// Data returns the data-index tree.
func (s *Store) Data() *Tree { return s.data }

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
	rec := encodeLogRecord(t == s.data, m, withPayload)
	if !withPayload {
		s.unloggedData = true
	}
	lsn, err := s.log.Append(opRecord, rec)
	if err == wal.ErrLogFull {
		s.releaseLogPins()
		// checkpointLocked, not Checkpoint: the caller already holds
		// writerMu (logAndInsert / LogInsertOnly).
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
// log full. The caller holds writerMu and the hook inserts through the
// public mutators, which take it, so it is dropped around the call: the
// blocked operation has been assigned neither an LSN nor an MSN yet, so
// whatever the hook inserts simply orders before it.
func (s *Store) releaseLogPins() {
	if s.OnLogPressure == nil {
		return
	}
	s.writerMu.Unlock()
	defer s.writerMu.Lock()
	s.OnLogPressure()
}

// encodeLogRecord renders one logical operation as a redo-log record: the
// tree (0 meta, 1 data), the message type, the key and end key behind
// 16-bit lengths, the update offset and the value length as 32-bit words,
// and whether the value bytes follow (they end the record).
func encodeLogRecord(data bool, m *Msg, withPayload bool) []byte {
	var payload []byte
	vlen := 0
	if m.Type == MsgInsert || m.Type == MsgUpdate {
		vlen = m.Val.Len()
		if withPayload {
			payload = m.Val.Bytes()
		}
	}
	e := codec.Encoder{Buf: make([]byte, 0, 20+len(m.Key)+len(m.EndKey)+len(payload))}
	e.Bool(data)
	e.U8(uint8(m.Type))
	e.U16(uint16(len(m.Key)))
	e.Bytes(m.Key)
	e.U16(uint16(len(m.EndKey)))
	e.Bytes(m.EndKey)
	e.U32(uint32(m.Off))
	e.U32(uint32(vlen))
	e.Bool(withPayload)
	e.Bytes(payload)
	return e.Buf
}

// decodeLogRecord inverts encodeLogRecord; logged reports whether the
// record carried its value. The record passed the log's CRC, but one a
// buggy or foreign writer produced must still be an error wrapping
// ErrChecksum, never a panic: every field is read before any is used, an
// unknown tree or message type, a value length on a message that has no
// value, and a record not consumed exactly are all errors.
func decodeLogRecord(p []byte) (data bool, m *Msg, logged bool, err error) {
	d := codec.NewDecoder(p)
	data = d.Bool()
	mt := MsgType(d.U8())
	key := d.Take(int(d.U16()))
	endKey := d.Take(int(d.U16()))
	off := int(d.U32())
	vlen := int(d.U32())
	logged = d.Bool()
	var payload []byte
	if logged {
		payload = d.Take(vlen)
	}
	if err := d.Done(); err != nil {
		return false, nil, false, fmt.Errorf("betree: log record: %w: %w", ErrChecksum, err)
	}
	hasValue := mt == MsgInsert || mt == MsgUpdate
	known := hasValue || mt == MsgDelete || mt == MsgRangeDelete
	if !known || !hasValue && vlen != 0 {
		return false, nil, false, fmt.Errorf("betree: log record: %w: %v with a %d-byte value", ErrChecksum, mt, vlen)
	}
	m = &Msg{Type: mt, Key: bytes.Clone(key), EndKey: bytes.Clone(endKey), Off: off}
	if hasValue && logged {
		m.Val = InlineValue(bytes.Clone(payload))
	}
	return data, m, logged, nil
}

// replay applies one redo-log record. A malformed record, or one of a
// type the store never writes, fails recovery with an error wrapping
// ErrChecksum before any of it is applied.
func (s *Store) replay(rec wal.Record) error {
	if rec.Type != opRecord {
		return fmt.Errorf("betree: log record of type %d: %w", rec.Type, ErrChecksum)
	}
	data, m, logged, err := decodeLogRecord(rec.Payload)
	if err != nil {
		return err
	}
	if m.Type == MsgUpdate && m.Off+m.Val.Len() > s.cfg.NodeSize {
		// A blind update materializes its value up to the patched end,
		// which must fit in a node.
		return fmt.Errorf("betree: log record: %w: update of [%d, +%d) exceeds a %d-byte node",
			ErrChecksum, m.Off, m.Val.Len(), s.cfg.NodeSize)
	}
	// Every record takes an MSN, a skipped one too.
	m.MSN = s.nextMsn()
	if (m.Type == MsgInsert || m.Type == MsgUpdate) && !logged {
		// Bulk value never payload-logged: its durability was
		// checkpoint-based, so the checkpointed tree already has
		// the newest durable version. Skip.
		return nil
	}
	t := s.meta
	if data {
		t = s.data
	}
	t.insertMsg(m)
	return nil
}

// --- node I/O -------------------------------------------------------------

// nodeImage is a serialized node between the CPU half of a write
// (prepareNodeImage) and the submission half (finishNodeWrite). img is the
// pooled buffer data lives in; clean counts the bytes of its partitions
// that were clean before it was serialized.
type nodeImage struct {
	buf   *kmem.Buf
	data  []byte
	img   *image
	clean int
}

// writeNode serializes and writes a dirty node copy-on-write, charging the
// allocator costs of assembling the serialization buffer. The two halves
// are split so the checkpoint pipeline can fan serialization out across
// the flusher pool while keeping block placement and write submission in
// deterministic order on the coordinating goroutine (writeDirtyNodes).
//
// A dirty node can reach write-back half-loaded: a cold point read caches a
// leaf with one basement resident, and a flush into it loads only the
// basements its messages land in; a v0.4 query that pushes messages out of
// a partially read interior node dirties it. The new image must carry the
// untouched partitions too, so they are read in first — here, on the
// coordinating goroutine, because the read touches the device and the
// cache accounting.
func (s *Store) writeNode(t *Tree, n *node) {
	t.ensureAll(n)
	s.finishNodeWrite(t, n, s.prepareNodeImage(t, n))
}

// prepareNodeImage is the CPU half: allocate the serialization buffer and
// serialize. It touches no structural store state, so the
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
	img := getImage(int64(encodedSizeBound(&s.cfg, n)))
	clean := n.cleanBytes()
	return nodeImage{buf: buf, data: serializeNode(s.env, &s.cfg, n, img.b), img: img, clean: clean}
}

// inflightWrite is one submitted node-image write. The image and target
// extent are retained so a failed write can be relocated to fresh space
// and retried before the sticky write error latches; img (nil when data is
// not pooled) goes back to the image pool once the write has succeeded.
type inflightWrite struct {
	t        *Tree
	id       nodeID
	ext      extent
	data     []byte
	img      *image
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
		t: t, id: n.id, ext: ext, data: data, img: img.img,
		wait: t.f.SubmitWrite(data, ext.off),
	})
	if len(s.inflight) > 8 {
		w := s.inflight[0]
		s.inflight = s.inflight[1:]
		s.devCheck(s.completeWrite(w))
	}
	s.alloc.FreeSized(img.buf)
	n.dirty.Store(false)
	n.markClean()
	s.m.nodeWrite.Inc()
	s.m.bytesWritten.Add(int64(len(data)))
	s.m.bytesWrittenClean.Add(int64(img.clean))
	s.env.Trace("betree", "node.write", t.name, int64(len(data)))
}

// completeWrite waits for one node write and, on a device write error,
// runs write-path relocation (DESIGN.md §10.6): the failed extent is
// retired to the grown-defect list and the same image is rewritten at
// freshly allocated space, up to relocateAttempts times. The final
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
		if w.attempts >= relocateAttempts {
			break // attempt bound exhausted
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
		if w.img != nil {
			putImage(w.img)
			w.img = nil
		}
	}
	return err
}

// readNode fetches a node image from disk. If partialKey is non-nil, only
// the header region is read for the node's shell, and then the one
// partition on partialKey's path: the basement holding it, or the child
// buffer it descends through unless that buffer's key filter rules
// partialKey out (§2.2 basement nodes, and TokuDB's partial fetch of a
// nonleaf node). A leaf keeps the basement small sections the header
// region holds, so each basement load reads only its page range. A
// corrupted or torn image surfaces an error wrapping ErrChecksum rather
// than garbage or a panic.
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
			if rerr := t.f.SubmitRead(pr.img.b, ext.off)(); rerr != nil {
				putImage(pr.img)
				return nil, rerr
			}
		}
		s.m.prefetchHit.Inc()
		return s.decodeFull(t, id, ext, pr.img)
	}

	if partialKey != nil {
		// Header region first, into a buffer of just that size.
		hlen := min(int64(headerRegion), ext.len)
		// The shell copies what it keeps (its keys), so the header buffer
		// goes back to the pool before this returns.
		hdr := getImage(hlen)
		defer putImage(hdr)
		if rerr := t.f.SubmitRead(hdr.b, ext.off)(); rerr != nil {
			return nil, rerr
		}
		if n, _, err := decodeShell(hdr.b); err == nil && n.id == id {
			s.m.nodePartial.Inc()
			s.countNodeRead(n, hlen)
			if n.isLeaf() {
				n.keepSmall(s.env, hdr.b)
				err = s.loadBasement(t, n, ext, n.basementFor(s.env, partialKey))
			} else if ci := n.childFor(s.env, partialKey); s.needsPartition(&n.bufs[ci], partialKey) {
				err = s.loadPartition(t, n, ext, ci)
			}
			if err != nil {
				n.releaseRefs()
				return nil, err
			}
			return n, nil
		}
		// A shell that did not fit in the region, failed its checksum or
		// names another node leaves the decision to the whole-image
		// checksum: read the remainder.
		img := getImage(ext.len)
		copy(img.b, hdr.b)
		if ext.len > hlen {
			if rerr := t.f.SubmitRead(img.b[hlen:], ext.off+hlen)(); rerr != nil {
				putImage(img)
				return nil, rerr
			}
		}
		return s.decodeFull(t, id, ext, img)
	}

	img := getImage(ext.len)
	if rerr := t.f.SubmitRead(img.b, ext.off)(); rerr != nil {
		putImage(img)
		return nil, rerr
	}
	return s.decodeFull(t, id, ext, img)
}

// countNodeRead counts one node read of bytes off the device.
func (s *Store) countNodeRead(n *node, bytes int64) {
	s.m.nodeRead.Inc()
	s.countBytesRead(n, bytes)
}

// countBytesRead adds bytes read for node n to betree.bytes.read and to
// its interior or leaf share.
func (s *Store) countBytesRead(n *node, bytes int64) {
	s.m.bytesRead.Add(bytes)
	if n.isLeaf() {
		s.m.bytesReadLeaf.Add(bytes)
	} else {
		s.m.bytesReadInterior.Add(bytes)
	}
}

// decodeImage deserializes the full image of node id and checks that its
// header names that node. Every full-image read decodes through it:
// fetches (decodeFull), whose values borrow from img, and scrubs
// (verifyExtent) and repairs (repairNode), which pass a nil img.
func (s *Store) decodeImage(data []byte, id nodeID, img *image) (*node, error) {
	n, err := deserializeNode(s.env, data, img)
	if err == nil && n.id != id {
		return nil, fmt.Errorf("node header claims id %d, block table says %d: %w", n.id, id, ErrChecksum)
	}
	return n, err
}

// decodeFull decodes the full node image in img and counts the read. The
// node's values borrow img, which goes back to the pool when the last of
// them is released (keep). A checksum failure re-reads the extent once:
// a bit flip picked up in transfer (not on the medium) yields a clean
// second read. Re-reads count in io.retry.corrupt; a second failure is
// persistent corruption and surfaces ErrChecksum.
func (s *Store) decodeFull(t *Tree, id nodeID, ext extent, img *image) (*node, error) {
	n, err := s.decodeImage(img.b, id, img)
	if err != nil && errors.Is(err, ErrChecksum) {
		s.m.retryCorrupt.Inc()
		// A failed decode's node never escapes, so none of the borrows
		// its basements took are live.
		img.refs.Store(0)
		if rerr := t.f.SubmitRead(img.b, ext.off)(); rerr != nil {
			putImage(img)
			return nil, rerr
		}
		n, err = s.decodeImage(img.b, id, img)
	}
	if err != nil {
		putImage(img)
		return nil, err
	}
	s.keep(img)
	s.countNodeRead(n, ext.len)
	return n, nil
}

// loadBasement materializes basement bi of cached leaf n with a partial
// disk read (loadPart).
func (s *Store) loadBasement(t *Tree, n *node, ext extent, bi int) error {
	b := n.basements[bi]
	if b.loaded {
		return nil
	}
	err := b.checkSpan(ext.len)
	if err == nil {
		err = s.loadPart(t, n, ext, &b.part, func(small, pages []byte, img *image, crc uint32) error {
			return decodeBasement(small, pages, b, n.pageBase, img, crc)
		})
	}
	if err != nil {
		return fmt.Errorf("betree: %s node %d basement %d: %w", t.name, n.id, bi, err)
	}
	s.m.basementRead.Inc()
	return nil
}

// needsPartition reports whether a point read for key must load child
// buffer b, still on disk: unless its key filter rules key out. The v0.4
// apply-on-query policy pushes whatever the path buffers hold for the
// whole leaf, so it loads every partition on the path.
func (s *Store) needsPartition(b *buffer, key []byte) bool {
	return s.cfg.LegacyApplyOnQuery || b.mayHold(key)
}

// loadPartition materializes child buffer ci of interior node n with a
// partial disk read (loadPart). Its caller keeps every other user of n out:
// n is not yet cached, or is latched exclusively, or the structure lock is
// held exclusively.
func (s *Store) loadPartition(t *Tree, n *node, ext extent, ci int) error {
	b := &n.bufs[ci]
	if !b.missing {
		return nil
	}
	err := b.within(ext.len)
	if err == nil {
		err = s.loadPart(t, n, ext, &b.part, func(small, pages []byte, img *image, crc uint32) error {
			return decodePartition(small, pages, b, img, crc)
		})
	}
	if err != nil {
		return fmt.Errorf("betree: %s node %d partition %d: %w", t.name, n.id, ci, err)
	}
	s.m.partitionRead.Inc()
	return nil
}

// loadPart reads partition p of node n, whose image is at ext, and decodes
// it with decode; the partition's values then borrow the image it was read
// into: for an interior node its own (n.img, taken on its first partition
// load), for a leaf a pooled image of the partition's size. The partition
// is one device read when its small section and page range are
// contiguous, as an interior partition's always are. A basement's lie
// apart: its load reads only the page range when the shell read kept the
// small section (p.kept), as it does for every basement whose small
// section lies in the header region, and both, in two reads, otherwise.
// The bytes are hashed once and decode compares that checksum with the
// directory's; a mismatch drops the kept section and re-reads both parts
// once into the same buffer (see decodeFull) before being reported as
// corruption. An empty partition reads nothing.
func (s *Store) loadPart(t *Tree, n *node, ext extent, p *part, decode func(small, pages []byte, img *image, crc uint32) error) error {
	size := p.diskLen + p.pageLen
	if size == 0 {
		return decode(nil, nil, nil, 0)
	}
	own := n.isLeaf()
	if !own && n.img == nil {
		// An interior node's partitions are read into an image of its
		// extent, as a whole read would be, so partial and whole reads
		// and the writes draw on the same image sizes.
		n.img = getImage(ext.len)
		n.img.refs.Store(1)
		s.keep(n.img)
	}
	img, buf := n.img, []byte(nil)
	if own {
		img = getImage(int64(size))
		buf = img.b
	} else {
		buf = img.b[p.diskOff : p.diskOff+size]
	}
	small, pages := buf[:p.diskLen], buf[p.diskLen:]
	// read fills buf and returns its checksum and how many of its bytes
	// came off the device.
	read := func() (uint32, int, error) {
		var err error
		switch {
		case p.kept != nil:
			s.env.Memcpy(copy(small, p.kept))
			if p.pageLen > 0 {
				err = t.f.SubmitRead(pages, ext.off+int64(p.pageOff))()
			}
		case p.pageOff == p.diskOff+p.diskLen:
			err = t.f.SubmitRead(buf, ext.off+int64(p.diskOff))()
		default:
			if err = t.f.SubmitRead(small, ext.off+int64(p.diskOff))(); err == nil && p.pageLen > 0 {
				err = t.f.SubmitRead(pages, ext.off+int64(p.pageOff))()
			}
		}
		if err != nil {
			return 0, 0, err
		}
		return crc32.ChecksumIEEE(buf), size - len(p.kept), nil
	}
	// A failed decode credits no borrow, so only an image of its own goes
	// back on an error. A dropped kept section changes n's charge.
	fail := func(err error) error {
		if own {
			putImage(img)
		}
		s.cache.resize(t, n)
		return err
	}
	crc, devBytes, err := read()
	if err != nil {
		return fail(err)
	}
	s.env.Checksum(size)
	s.env.Serialize(p.diskLen)
	err = decode(small, pages, img, crc)
	if err != nil && errors.Is(err, ErrChecksum) {
		// The kept section may be what a flipped bit in the header
		// read's transfer landed in: read both parts again.
		s.m.retryCorrupt.Inc()
		p.kept = nil
		if crc, devBytes, err = read(); err != nil {
			return fail(err)
		}
		err = decode(small, pages, img, crc)
	}
	if err != nil {
		return fail(err)
	}
	if own {
		s.keep(img)
	}
	p.kept = nil
	s.countBytesRead(n, int64(devBytes))
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
	wait := t.f.SubmitRead(img.b, ext.off)
	s.pendingMu.Lock()
	if _, raced := s.pending[key]; raced {
		// Another goroutine issued the same prefetch between our check
		// and the submit: keep theirs, absorb ours (the duplicate's data
		// is discarded, so its error is irrelevant).
		s.pendingMu.Unlock()
		_ = wait()
		putImage(img)
		return
	}
	s.pending[key] = &pendingRead{img: img, wait: wait}
	s.pendingMu.Unlock()
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
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
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
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
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
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.checkpointLocked()
	return nil
}

// checkpointLocked is the checkpoint body. Callers hold writerMu (no
// mutator is mid-flight). It drains the flusher pool BEFORE taking the
// structure lock: pool tasks only TryLock and drop on failure, so the
// drain cannot deadlock, and afterwards no background task can be holding
// store state while we write the superblock.
func (s *Store) checkpointLocked() {
	if pool := s.asyncPool(); pool != nil {
		pool.Drain()
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
	s.m.checkpoint.Inc()
	s.env.Trace("betree", "checkpoint", "", int64(checkpointLSN))
}

// writeDirtyNodes writes back every dirty cached node of tree t. With
// more than one flusher worker the CPU half (serialize and
// checksum) fans out across the pool and the submission half runs on this
// goroutine in sweep order; with one worker it is a sequential loop.
func (s *Store) writeDirtyNodes(t *Tree) {
	dirty := s.cache.dirtyNodes(t)
	pool := s.asyncPool()
	if pool == nil || len(dirty) <= 1 {
		for _, n := range dirty {
			s.writeNode(t, n)
		}
		return
	}
	imgs := make([]nodeImage, len(dirty))
	var wg sync.WaitGroup
	for i, n := range dirty {
		i, n := i, n
		t.ensureAll(n) // see writeNode
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

// DropCleanCaches checkpoints and then empties the node cache and pending
// prefetches — the cold-cache state benchmarks start from.
func (s *Store) DropCleanCaches() (err error) {
	defer ioerr.Guard(&err)
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	s.checkpointLocked()
	s.pendingMu.Lock()
	for k, pr := range s.pending {
		_ = pr.wait() // prefetched data is being discarded
		putImage(pr.img)
		delete(s.pending, k)
	}
	s.pendingMu.Unlock()
	s.cache.dropAll()
	return nil
}
