package betree

import (
	"betrfs/internal/ioerr"
	"betrfs/internal/sim"
)

// Background work on the flusher pool (DESIGN.md §9).
//
// Every inject has a short foreground half, injectRoot, that holds the
// structure lock shared and the root latch exclusive just long enough to
// append the message to the root (or apply it, when the root is a leaf),
// so point queries and scans on other nodes keep running. The
// restructuring half, flushRootLocked, flushes and splits under the
// exclusive structure lock. With background workers and soft pressure
// writers hand it to the pool; otherwise they run it inline (insertMsg).
// Dirty write-back on eviction goes to the pool the same way when the
// cache defers it.
//
// Background pool tasks never block on the structure lock: they TryLock
// and drop the work on failure. The work is re-triggerable (an overfull
// root re-requests a flush on the next inject; dirty cache pressure
// re-requests writeback on the next eviction sweep), and the no-blocking
// rule is what makes checkpointLocked's drain-then-lock sequence
// deadlock-free.

// asyncPool returns the flusher pool when it runs tasks on background
// workers, and nil when it has at most one worker and would run them
// inline. Every background decision in the store is made on it alone.
func (s *Store) asyncPool() *sim.WorkerPool {
	if s.env.Pool == nil || s.env.Pool.Workers() <= 1 {
		return nil
	}
	return s.env.Pool
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
		t.flushRootLocked(nil)
	})
	if !ok {
		// Queue full: flush inline so pressure cannot outrun the pool.
		t.flushQueued.Store(false)
		t.flushRootExcl(nil)
	}
}

// requestBackgroundWriteback queues a sweep that writes back all dirty
// nodes. The node cache calls it (outside its shard locks) when an
// eviction pass had to skip dirty nodes under the deferred-writeback
// policy; it is deduplicated, and a no-op without background workers.
func (s *Store) requestBackgroundWriteback() {
	pool := s.asyncPool()
	if pool == nil || !s.wbQueued.CompareAndSwap(false, true) {
		return
	}
	ok := pool.TrySubmit(func() {
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
