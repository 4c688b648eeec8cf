package blockdev

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Stored bytes live in one process-wide chunk store, outside the Go heap
// where the platform allows (DESIGN.md §5.6). Every Dev takes its 64 KiB
// chunks from the store and gives them back when a discard drops them
// whole, or, through a finalizer on its chunk table, when the Dev itself
// is dropped.
const (
	chunkSize = 64 << 10
	// slabSize is how much the store maps at once: 256 chunks.
	slabSize = 16 << 20
	// collectFloor is the mapped size below which the store never forces
	// a collection before it maps another slab.
	collectFloor = 64 << 20
)

// sharedChunks is the store every Dev draws from.
var sharedChunks chunkStore

// chunkStore hands out chunks carved from slabs that newSlab maps. A slab
// comes zeroed, so a chunk that was never handed out is all zeros; a chunk
// on the free list holds whatever its last owner wrote.
//
// The collector does not see mapped memory, so nothing would run the
// finalizers of dropped devices in time. Before the store maps a slab past
// twice the bytes held after the previous forced collection (and past
// collectFloor), it therefore forces one, which returns every unreachable
// device's chunks to the free list.
type chunkStore struct {
	mu     sync.Mutex
	free   [][]byte // chunks given back, holding stale bytes
	fresh  []byte   // the part of the newest slab never handed out
	mapped int64    // bytes of every slab mapped
	limit  int64    // mapped size past which the next slab waits for a collection

	tables      atomic.Int64 // chunk tables whose finalizer has not run
	gcMu        sync.Mutex   // one forced collection at a time
	collections atomic.Int64 // forced collections so far
}

// get returns a chunk and whether it is fresh: never handed out, so zero.
func (s *chunkStore) get() (c []byte, fresh bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if n := len(s.free); n > 0 {
			c = s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
			return c, false
		}
		if len(s.fresh) > 0 {
			c = s.fresh[:chunkSize:chunkSize]
			s.fresh = s.fresh[chunkSize:]
			return c, true
		}
		// After a collection that freed nothing the limit is twice what
		// is mapped, so this collects at most once a call.
		if s.mapped+slabSize > max(s.limit, collectFloor) {
			s.collect()
			continue
		}
		s.fresh = newSlab(slabSize)
		s.mapped += slabSize
	}
}

// put returns chunk c to the free list.
func (s *chunkStore) put(c []byte) {
	s.mu.Lock()
	s.free = append(s.free, c)
	s.mu.Unlock()
}

// collect runs a collection and waits for the finalizers it queues, then
// sets the next limit from the bytes still held. It is called with s.mu
// held and drops it meanwhile, because the finalizers take it.
func (s *chunkStore) collect() {
	gen := s.collections.Load()
	s.mu.Unlock()
	s.gcMu.Lock()
	if s.collections.Load() == gen { // no one collected while we waited
		// One goroutine runs every finalizer: it takes the whole queue at
		// once and runs it last-queued first, so the sentinel may run
		// before finalizers its collection queued. If tables other than
		// the caller's are left, a second collection queues a sentinel
		// that runs only after that first batch.
		awaitSentinel()
		if s.tables.Load() > 1 {
			awaitSentinel()
		}
		s.collections.Add(1)
	}
	s.gcMu.Unlock()
	s.mu.Lock()
	held := s.mapped - int64(len(s.free))*chunkSize - int64(len(s.fresh))
	s.limit = 2 * held
}

// awaitSentinel forces a collection and waits, for a second at most,
// until the finalizer of a sentinel dropped before it has run. The
// sentinel holds a pointer, so it is not a tiny allocation: the finalizer
// of a tiny object may never run.
func awaitSentinel() {
	done := make(chan struct{})
	runtime.SetFinalizer(&chunkTable{}, func(*chunkTable) { close(done) })
	runtime.GC()
	select {
	case <-done:
	case <-time.After(time.Second):
	}
}

// chunkTable maps a Dev's chunk indexes to the chunks it took from store.
// It is an object of its own, referenced by the Dev alone, so that its
// finalizer runs once the Dev is unreachable whatever cycles the Dev is
// part of.
type chunkTable struct {
	m     map[int64][]byte
	store *chunkStore
}

func newChunkTable(s *chunkStore) *chunkTable {
	s.tables.Add(1)
	t := &chunkTable{m: make(map[int64][]byte), store: s}
	runtime.SetFinalizer(t, func(t *chunkTable) {
		s := t.store
		s.mu.Lock()
		for _, c := range t.m {
			s.free = append(s.free, c)
		}
		s.mu.Unlock()
		s.tables.Add(-1)
	})
	return t
}

// add stores a new chunk at index ci for a write of n bytes at offset co
// in it. A reused chunk has every byte outside the write zeroed; a fresh
// one is zero already, and clearing it would fault in pages the write does
// not touch.
func (t *chunkTable) add(ci int64, co, n int) []byte {
	c, fresh := t.store.get()
	if !fresh {
		clear(c[:co])
		clear(c[co+n:])
	}
	t.m[ci] = c
	return c
}

// drop gives chunk ci back to the store.
func (t *chunkTable) drop(ci int64) {
	t.store.put(t.m[ci])
	delete(t.m, ci)
}
