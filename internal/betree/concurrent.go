package betree

import "betrfs/internal/ioerr"

// Concurrent-mode code paths (DESIGN.md §9).
//
// In concurrent mode (Config.Concurrent) the tree splits every inject
// into two halves:
//
//   - a short foreground half, insertMsgConcurrent, that holds the
//     structure lock shared and the root latch exclusive just long enough
//     to append the message to the root (or apply it, when the root is a
//     leaf) — so point queries and scans on other nodes keep running;
//   - a restructuring half, flushRootLocked, that flushes and splits
//     under the exclusive structure lock. Writers hand it to the flusher
//     pool when background workers exist and the pressure is soft, and
//     run it inline when the root has grown past the hard limit (or when
//     the pool is in deterministic single-worker mode).
//
// Background pool tasks never block on the structure lock: they
// TryLock and drop the work on failure. The work is re-triggerable (an
// overfull root re-requests a flush on the next inject; dirty cache
// pressure re-requests writeback on the next eviction sweep), and the
// no-blocking rule is what makes checkpointLocked's drain-then-lock
// sequence deadlock-free.

// insertMsgConcurrent is the concurrent-mode body of insertMsg. The
// caller (logAndInsert) holds writerMu, so mutators are serialized and
// arrival order at the root equals MSN order.
func (t *Tree) insertMsgConcurrent(m *Msg) {
	s := t.store
	size, limit := t.injectRoot(m)
	if size <= limit {
		return
	}
	pool := s.env.Pool
	if size > 2*limit || pool == nil || pool.Workers() <= 1 {
		// Hard pressure (or no background workers): restructure inline so
		// the root cannot grow without bound. Safe to block on the
		// exclusive lock here — we hold writerMu, readers drain on their
		// own, and pool tasks never block on the structure lock.
		t.flushRootExcl()
		return
	}
	t.scheduleBackgroundFlush()
}

// injectRoot appends m at the root under the shared structure lock and
// root latch, using defers so a device-failure abort from deep inside the
// apply still releases every lock on its way to the public-API guard.
func (t *Tree) injectRoot(m *Msg) (size, limit int) {
	s := t.store
	s.lockShared()
	defer s.unlockShared()
	root := t.mustFetch(t.rootID)
	defer t.unpin(root)
	s.latchExcl(root)
	defer s.unlatchExcl(root)
	if root.isLeaf() {
		t.applyToLeaf(root, m)
		t.markDirty(root)
		return root.leafBytes(), s.cfg.NodeSize
	}
	ci := root.childFor(s.env, m.Key)
	root.bufs[ci].add(s.env, s.alloc, m)
	if m.Type == MsgRangeDelete {
		t.routeRangeMsg(root, m, ci)
	}
	t.markDirty(root)
	return root.bufferBytes(), s.cfg.NodeSize
}

// flushRootExcl runs flushRootLocked under the exclusive structure lock,
// deferring the unlock so an abort cannot leak it.
func (t *Tree) flushRootExcl() {
	s := t.store
	s.lockExcl()
	defer s.unlockExcl()
	t.flushRootLocked()
}

// flushRootLocked relieves root pressure: flush descend, then split if
// the root itself is oversized. Caller holds the exclusive structure
// lock. A no-op if a previous flush already relieved the pressure.
func (t *Tree) flushRootLocked() {
	s := t.store
	root := t.mustFetch(t.rootID)
	defer t.unpin(root)
	if root.isLeaf() {
		if root.leafBytes() > s.cfg.NodeSize {
			t.splitRoot(root)
		}
		return
	}
	if root.bufferBytes() > s.cfg.NodeSize {
		t.flushDescend(root)
	}
	if len(root.children) > s.cfg.Fanout {
		t.splitRoot(root)
	}
}

// scheduleBackgroundFlush queues a root flush on the flusher pool,
// deduplicating against an already-queued one.
func (t *Tree) scheduleBackgroundFlush() {
	s := t.store
	if !t.flushQueued.CompareAndSwap(false, true) {
		return
	}
	ok := s.env.Pool.TrySubmit(func() {
		t.flushQueued.Store(false)
		if !s.tryLockExcl() {
			// Whoever holds the structure lock (a checkpoint, another
			// flush, a writeback) is relieving pressure itself; the next
			// inject re-queues us if the root is still overfull.
			return
		}
		defer s.unlockExcl()
		// A pool goroutine has no caller to report a device failure to:
		// write failures were latched by devCheck and resurface at the
		// next checkpoint, read failures recur on the next foreground
		// fetch, so the abort is absorbed here instead of crashing.
		var bgErr error
		defer ioerr.Guard(&bgErr)
		s.m.flushBackground.Inc()
		t.flushRootLocked()
	})
	if !ok {
		// Queue full: flush inline so pressure cannot outrun the pool.
		t.flushQueued.Store(false)
		t.flushRootExcl()
	}
}

// requestBackgroundWriteback queues a sweep that writes back all dirty
// nodes. The node cache calls it (outside its shard locks) when an
// eviction pass had to skip dirty nodes under the deferred-writeback
// policy; it is also deduplicated, and a no-op in deterministic mode
// where eviction writes back inline as it always has.
func (s *Store) requestBackgroundWriteback() {
	if !s.concurrent || s.env.Pool == nil || s.env.Pool.Workers() <= 1 {
		return
	}
	if !s.wbQueued.CompareAndSwap(false, true) {
		return
	}
	ok := s.env.Pool.TrySubmit(func() {
		s.wbQueued.Store(false)
		if !s.tryLockExcl() {
			return
		}
		defer s.unlockExcl()
		// Same absorption rule as the background flush: devCheck latched
		// any write failure, and the next checkpoint re-raises it.
		var bgErr error
		defer ioerr.Guard(&bgErr)
		s.m.wbBackground.Inc()
		for _, t := range []*Tree{s.meta, s.data} {
			for _, n := range s.cache.dirtyNodes(t) {
				s.writeNode(t, n)
			}
		}
		s.drainWrites()
	})
	if !ok {
		s.wbQueued.Store(false)
	}
}
