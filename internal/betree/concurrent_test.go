package betree

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/kmem"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
)

// concurrentStore builds a store in concurrent mode with background pool
// workers, the configuration DESIGN.md §9 describes. Run these tests with
// -race (make race does) — they are the repo's data-race canaries for the
// locking protocol.
func concurrentStore(t testing.TB, workers int) (*sim.Env, *Store) {
	t.Helper()
	env := sim.NewEnv(1)
	env.Pool.SetWorkers(workers)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, berr := sfl.NewDefault(env, dev)
	if berr != nil {
		panic(berr)
	}
	cfg := DefaultConfig()
	cfg.NodeSize = 64 << 10
	cfg.BasementSize = 4 << 10
	cfg.Fanout = 8
	cfg.CacheBytes = 4 << 20
	cfg.Concurrent = true
	cfg.LegacyApplyOnQuery = false
	s, err := Open(env, kmem.New(env, true), cfg, backend)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return env, s
}

func ck(client, i int) []byte { return []byte(fmt.Sprintf("c%02d/key-%06d", client, i)) }

func cv(client, i int) []byte {
	return bytes.Repeat([]byte{byte(client*31 + i)}, 24+i%17)
}

// TestConcurrentCursorStress runs N client goroutines against one tree,
// each owning a disjoint key prefix and checking every read against its
// private oracle map: mixed injects, deletes, point queries, and range
// scans, with the background flusher pool active. Interior restructuring
// (flush, split) triggered by any client must never corrupt what another
// client observes.
func TestConcurrentCursorStress(t *testing.T) {
	const clients = 8
	const ops = 600
	_, s := concurrentStore(t, 3)
	tr := s.Data()

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			oracle := map[string][]byte{}
			fail := func(format string, args ...any) {
				if errs[c] == nil {
					errs[c] = fmt.Errorf(format, args...)
				}
			}
			for i := 0; i < ops; i++ {
				key := ck(c, i)
				val := cv(c, i)
				tr.Put(key, val, LogAuto)
				oracle[string(key)] = val
				if i%11 == 5 {
					dk := ck(c, i-3)
					tr.Delete(dk, LogAuto)
					delete(oracle, string(dk))
				}
				if i%7 == 3 {
					gk := ck(c, i/2)
					got, ok, err := tr.Get(gk)
					if err != nil {
						fail("client %d: Get(%s): %v", c, gk, err)
						return
					}
					want, inOracle := oracle[string(gk)]
					if ok != inOracle || (ok && !bytes.Equal(got, want)) {
						fail("client %d: Get(%s) = %q,%v, oracle %q,%v", c, gk, got, ok, want, inOracle)
						return
					}
				}
				if i%97 == 41 {
					// Scan the client's whole prefix and diff against the
					// oracle; other clients' keys must never leak in.
					lo := []byte(fmt.Sprintf("c%02d/", c))
					hi := []byte(fmt.Sprintf("c%02d0", c)) // '0' > '/'
					seen := map[string]bool{}
					err := tr.Scan(lo, hi, func(k, v []byte) bool {
						want, inOracle := oracle[string(k)]
						if !inOracle {
							fail("client %d: scan surfaced unexpected key %q", c, k)
							return false
						}
						if !bytes.Equal(v, want) {
							fail("client %d: scan value mismatch at %q", c, k)
							return false
						}
						seen[string(k)] = true
						return true
					})
					if err != nil {
						fail("client %d: scan: %v", c, err)
						return
					}
					if errs[c] != nil {
						return
					}
					if len(seen) != len(oracle) {
						fail("client %d: scan saw %d keys, oracle has %d", c, len(seen), len(oracle))
						return
					}
				}
			}
			// Final full check of this client's keyspace.
			for ks, want := range oracle {
				got, ok, err := tr.Get([]byte(ks))
				if err != nil || !ok || !bytes.Equal(got, want) {
					fail("client %d: final Get(%s) = %q,%v,%v", c, ks, got, ok, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count([]byte("c"), []byte("d")) == 0 {
		t.Fatal("tree empty after stress run")
	}
}

// TestConcurrentCheckpointDurability checks the background-flusher half of
// the protocol end to end: concurrent writers race the flusher pool, then
// a checkpoint (which drains the pool before taking the structure lock)
// makes everything durable, and a reopen over the same backend must see
// every key.
func TestConcurrentCheckpointDurability(t *testing.T) {
	const clients = 4
	const perClient = 1200
	env := sim.NewEnv(1)
	env.Pool.SetWorkers(3)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, berr := sfl.NewDefault(env, dev)
	if berr != nil {
		panic(berr)
	}
	cfg := DefaultConfig()
	cfg.NodeSize = 64 << 10
	cfg.BasementSize = 4 << 10
	cfg.Fanout = 8
	cfg.CacheBytes = 4 << 20
	cfg.Concurrent = true
	cfg.LegacyApplyOnQuery = false
	alloc := kmem.New(env, true)
	s, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				s.Data().Put(ck(c, i), cv(c, i), LogAuto)
			}
		}(c)
	}
	wg.Wait()
	s.Checkpoint()

	s2, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for c := 0; c < clients; c++ {
		for i := 0; i < perClient; i += 17 {
			got, ok, err := s2.Data().Get(ck(c, i))
			if err != nil || !ok || !bytes.Equal(got, cv(c, i)) {
				t.Fatalf("client %d key %d lost across concurrent checkpoint+reopen (ok=%v err=%v)", c, i, ok, err)
			}
		}
	}
	if got := s2.Data().Count(nil, nil); got != clients*perClient {
		t.Fatalf("count after reopen = %d, want %d", got, clients*perClient)
	}
}

// TestDeterministicModeTakesLocks pins the single locking protocol from
// the deterministic side: a default store runs the workload through the
// same store locks and node latches a served store takes, so the lock
// counters move, and with the default one-worker (inline) pool no flush
// or write-back ever leaves the caller's goroutine.
func TestDeterministicModeTakesLocks(t *testing.T) {
	env, s := testStore(t, nil)
	checkLockProtocol(t, env, s, false)
}

// TestConcurrentModeTakesLocks is the concurrent side of the test above.
// Background work is decided by the flusher pool alone: with one worker
// the concurrent store keeps every flush and write-back inline too.
func TestConcurrentModeTakesLocks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		bg      bool // background counters may move
	}{
		{"1worker", 1, false},
		{"2workers", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, s := concurrentStore(t, tc.workers)
			checkLockProtocol(t, env, s, tc.bg)
		})
	}
}

// checkLockProtocol runs one workload on s and checks that all four
// lock counters moved and, unless bg, that no flush or write-back ran in
// the background.
func checkLockProtocol(t *testing.T, env *sim.Env, s *Store, bg bool) {
	t.Helper()
	tr := s.Data()
	// Enough keys to split the root, so descents latch an interior node
	// shared.
	for i := 0; i < 3000; i++ {
		tr.Put(k(i), v(i, 40), LogAuto)
	}
	for i := 0; i < 3000; i += 7 {
		if _, ok, _ := tr.Get(k(i)); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
	tr.Scan(nil, nil, func(_, _ []byte) bool { return true })
	s.Checkpoint()
	snap := env.Metrics.Snapshot()
	for _, name := range []string{
		"betree.lock.store.shared", "betree.lock.store.excl",
		"betree.lock.node.shared", "betree.lock.node.excl",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s never moved", name)
		}
	}
	if bg {
		return
	}
	for _, name := range []string{"flusher.writeback.bg", "flusher.flush.bg"} {
		if n := snap.Counters[name]; n != 0 {
			t.Errorf("%s = %d with at most one pool worker", name, n)
		}
	}
}

// TestConcurrentPartialInteriorReads runs readers on cold caches over a
// three-level tree, with a writer whose flushes land in the same nodes:
// descents meet cached interior nodes that earlier partial reads left with
// partitions on disk, and load the one on their path under the node's
// exclusive latch while other descents hold it shared and wait. Every read
// must see the oracle's value. Run with -race.
func TestConcurrentPartialInteriorReads(t *testing.T) {
	const readers, keys, rounds = 4, 4000, 3
	_, s := concurrentStore(t, 3)
	tr := s.Data()
	for i := 0; i < keys; i++ {
		if err := tr.Put(k(i), v(i, 128), LogAuto); err != nil {
			t.Fatal(err)
		}
	}
	root := tr.mustFetch(tr.rootID)
	height := root.height
	tr.unpin(root)
	if height < 2 {
		t.Fatalf("tree height %d, want at least 2", height)
	}
	for round := 0; round < rounds; round++ {
		if err := s.DropCleanCaches(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := r; i < keys; i += 7 {
					got, ok, err := tr.Get(k(i))
					if err != nil || !ok || !bytes.Equal(got, v(i, 128)) {
						t.Errorf("reader %d key %d: ok=%v err=%v", r, i, ok, err)
						return
					}
				}
			}(r)
		}
		// The writer rewrites odd keys with the values they already hold,
		// so every reader's oracle stays valid while flushes run.
		for i := 1; i < keys; i += 2 {
			if err := tr.Put(k(i), v(i, 128), LogAuto); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
	}
}
