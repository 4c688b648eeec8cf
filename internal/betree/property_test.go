package betree

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/kmem"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
)

// model is a reference implementation: a plain sorted map.
type model struct {
	m map[string][]byte
}

func newModel() *model { return &model{m: make(map[string][]byte)} }

func (md *model) put(k string, v []byte) { md.m[k] = append([]byte{}, v...) }
func (md *model) del(k string)           { delete(md.m, k) }
func (md *model) delRange(lo, hi string) {
	for k := range md.m {
		if k >= lo && k < hi {
			delete(md.m, k)
		}
	}
}
func (md *model) update(k string, off int, patch []byte) {
	v := md.m[k]
	need := off + len(patch)
	if need > len(v) {
		nv := make([]byte, need)
		copy(nv, v)
		v = nv
	}
	copy(v[off:], patch)
	md.m[k] = v
}
func (md *model) sortedKeys() []string {
	out := make([]string, 0, len(md.m))
	for k := range md.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestRandomOpsAgainstModel drives a long random operation sequence
// against both the Bε-tree and the model, verifying point queries, full
// scans, and survival across checkpoints and reopens.
func TestRandomOpsAgainstModel(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			env := sim.NewEnv(seed)
			dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
			backend, berr := sfl.NewDefault(env, dev)
			if berr != nil {
				panic(berr)
			}
			cfg := DefaultConfig()
			cfg.NodeSize = 32 << 10
			cfg.BasementSize = 2 << 10
			cfg.Fanout = 6
			cfg.CacheBytes = 256 << 10 // tiny: force eviction traffic
			alloc := kmem.New(env, true)
			s, err := Open(env, alloc, cfg, backend)
			if err != nil {
				t.Fatal(err)
			}
			tr := s.Meta()
			md := newModel()
			rnd := sim.NewRand(seed)

			key := func() string {
				return fmt.Sprintf("p%d/f%04d", rnd.Intn(4), rnd.Intn(400))
			}
			const ops = 6000
			for i := 0; i < ops; i++ {
				switch rnd.Intn(10) {
				case 0, 1, 2, 3, 4: // insert
					k := key()
					v := bytes.Repeat([]byte{byte(rnd.Intn(256))}, 8+rnd.Intn(120))
					tr.Put([]byte(k), v, LogAuto)
					md.put(k, v)
				case 5: // delete
					k := key()
					tr.Delete([]byte(k), LogAuto)
					md.del(k)
				case 6: // range delete of one directory (raw slash keys,
					// so the subtree range is ["p/", "p0") in byte order)
					d := fmt.Sprintf("p%d", rnd.Intn(4))
					tr.DeleteRange([]byte(d+"/"), []byte(d+"0"), LogAuto)
					md.delRange(d+"/", d+"0")
				case 7: // blind update (absent keys materialize zeros)
					k := key()
					off := rnd.Intn(64)
					patch := []byte{byte(i)}
					tr.Update([]byte(k), off, patch, LogAuto)
					md.update(k, off, patch)
				case 8: // point query
					k := key()
					got, ok, _ := tr.Get([]byte(k))
					want, wok := md.m[k]
					if ok != wok || (ok && !bytes.Equal(got, want)) {
						t.Fatalf("op %d: Get(%q) = (%v,%v), want (%v,%v)", i, k, got, ok, want, wok)
					}
				case 9: // checkpoint sometimes
					if rnd.Intn(4) == 0 {
						s.Checkpoint()
					}
				}
			}
			verifyAgainstModel(t, tr, md, md.sortedKeys(), "", "")

			// Survive a clean reopen.
			s.Checkpoint()
			s2, err := Open(env, alloc, cfg, backend)
			if err != nil {
				t.Fatal(err)
			}
			verifyAgainstModel(t, s2.Meta(), md, md.sortedKeys(), "", "")
		})
	}
}

// verifyAgainstModel scans [lo, hi) (hi == "" means unbounded) and checks
// that it yields exactly the model's keys in that range, in order, with
// their values. want is md.sortedKeys(): the model's string order equals
// byte order because keys are ASCII, and the tree stores the model's raw
// keys as opaque bytes.
func verifyAgainstModel(t *testing.T, tr *Tree, md *model, want []string, lo, hi string) {
	t.Helper()
	var hiKey []byte
	if hi != "" {
		hiKey = []byte(hi)
	}
	inRange := func(k string) bool { return hi == "" || k < hi }
	i := sort.SearchStrings(want, lo)
	err := tr.Scan([]byte(lo), hiKey, func(k, v []byte) bool {
		if i >= len(want) || !inRange(want[i]) || want[i] != string(k) {
			t.Fatalf("scan [%q, %q) yielded %q out of model order", lo, hi, k)
		}
		if !bytes.Equal(v, md.m[want[i]]) {
			t.Fatalf("scan [%q, %q): value mismatch at %q", lo, hi, k)
		}
		i++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if i < len(want) && inRange(want[i]) {
		t.Fatalf("scan [%q, %q) stopped before model key %q", lo, hi, want[i])
	}
}

// TestRandomScansAgainstModel checks bounded scans that start mid-basement
// against the model on the shapes the cursor seek must handle: a root leaf
// holding one basement of more than 20 000 keys, and then — once that leaf
// has split into single-basement leaves of up to ~22 000 keys — with
// random puts, deletes, range deletes and updates pending in the root's
// buffers.
func TestRandomScansAgainstModel(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			env := sim.NewEnv(seed)
			dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
			backend, berr := sfl.NewDefault(env, dev)
			if berr != nil {
				t.Fatal(berr)
			}
			cfg := DefaultConfig()
			cfg.NodeSize = 2 << 20
			cfg.BasementSize = cfg.NodeSize // split halves keep one basement
			cfg.CacheBytes = 64 << 20
			s, err := Open(env, kmem.New(env, true), cfg, backend)
			if err != nil {
				t.Fatal(err)
			}
			tr := s.Meta()
			md := newModel()
			rnd := sim.NewRand(seed)
			const span = 100000
			key := func(i int) string { return fmt.Sprintf("k%06d", i) }
			val := func() []byte { return bytes.Repeat([]byte{byte(rnd.Intn(256))}, 8+rnd.Intn(16)) }
			scans := func(count int) {
				t.Helper()
				want := md.sortedKeys()
				for i := 0; i < count; i++ {
					lo := rnd.Intn(span)
					hi := lo + rnd.Intn(span/20)
					verifyAgainstModel(t, tr, md, want, key(lo), key(hi))
				}
			}
			rootShape := func() (leaf bool, basements, entries, pending int) {
				root := tr.mustFetch(tr.rootID, nil)
				defer tr.unpin(root)
				if !root.isLeaf() {
					return false, 0, 0, root.bufferBytes()
				}
				return true, len(root.basements), len(root.basements[0].entries), 0
			}

			// Even keys ascending: one basement in the root leaf.
			next := 0
			for ; next < 22000; next++ {
				k, v := key(2*next), val()
				tr.Put([]byte(k), v, LogNone)
				md.put(k, v)
			}
			if leaf, basements, entries, _ := rootShape(); !leaf || basements != 1 || entries <= 20000 {
				t.Fatalf("want a single-basement root leaf over 20000 keys, got leaf=%v basements=%d entries=%d",
					leaf, basements, entries)
			}
			scans(30)

			// Grow until the root splits, then leave random messages
			// pending above the single-basement leaves.
			for ; next < span/2; next++ {
				k, v := key(2*next), val()
				tr.Put([]byte(k), v, LogNone)
				md.put(k, v)
			}
			root := tr.mustFetch(tr.rootID, nil)
			for _, id := range root.children {
				c := tr.mustFetch(id, nil)
				if !c.isLeaf() || len(c.basements) != 1 {
					t.Fatalf("want single-basement leaves under the root, got height %d with %d basements",
						c.height, len(c.basements))
				}
				tr.unpin(c)
			}
			tr.unpin(root)
			for i := 0; i < 2000; i++ {
				ki := rnd.Intn(span)
				k := key(ki)
				switch rnd.Intn(8) {
				case 0, 1, 2, 3:
					v := val()
					tr.Put([]byte(k), v, LogNone)
					md.put(k, v)
				case 4, 5:
					tr.Delete([]byte(k), LogNone)
					md.del(k)
				case 6:
					hi := key(ki + 1 + rnd.Intn(200))
					tr.DeleteRange([]byte(k), []byte(hi), LogNone)
					md.delRange(k, hi)
				case 7:
					off, patch := rnd.Intn(32), []byte{byte(i)}
					tr.Update([]byte(k), off, patch, LogNone)
					md.update(k, off, patch)
				}
				if i%200 == 199 {
					if leaf, _, _, pending := rootShape(); leaf || pending == 0 {
						t.Fatalf("op %d: want messages pending in an interior root (leaf=%v, %d bytes)", i, leaf, pending)
					}
					scans(5)
				}
			}
		})
	}
}

// TestRandomUpdatesAgainstModel drives blind updates with exact model
// semantics.
func TestRandomUpdatesAgainstModel(t *testing.T) {
	env := sim.NewEnv(5)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, berr := sfl.NewDefault(env, dev)
	if berr != nil {
		panic(berr)
	}
	cfg := DefaultConfig()
	cfg.NodeSize = 32 << 10
	cfg.BasementSize = 2 << 10
	cfg.CacheBytes = 1 << 20
	s, err := Open(env, kmem.New(env, true), cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.Data()
	md := newModel()
	rnd := sim.NewRand(5)
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("f%03d", rnd.Intn(50))
		if rnd.Intn(3) == 0 {
			v := bytes.Repeat([]byte{byte(i)}, 32+rnd.Intn(200))
			tr.Put([]byte(k), v, LogAuto)
			md.put(k, v)
		} else {
			off := rnd.Intn(256)
			patch := bytes.Repeat([]byte{byte(i * 3)}, 1+rnd.Intn(16))
			tr.Update([]byte(k), off, patch, LogAuto)
			md.update(k, off, patch)
		}
		if i%500 == 0 {
			s.Checkpoint()
		}
	}
	for k, want := range md.m {
		got, ok, _ := tr.Get([]byte(k))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%q) diverged from model (ok=%v len=%d want %d)", k, ok, len(got), len(want))
		}
	}
}

// TestCrashInjection cuts the device at random points in the unflushed
// write stream and verifies the store recovers to a state consistent with
// the synced prefix of operations.
func TestCrashInjection(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			env := sim.NewEnv(seed)
			dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
			dev.EnableCrashTracking()
			backend, berr := sfl.NewDefault(env, dev)
			if berr != nil {
				panic(berr)
			}
			cfg := DefaultConfig()
			cfg.NodeSize = 32 << 10
			cfg.CacheBytes = 1 << 20
			alloc := kmem.New(env, true)
			s, err := Open(env, alloc, cfg, backend)
			if err != nil {
				t.Fatal(err)
			}
			tr := s.Meta()
			rnd := sim.NewRand(seed)

			// Synced phase: these must all survive.
			synced := map[string][]byte{}
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("s/f%04d", i)
				v := []byte(fmt.Sprintf("v%d", i))
				tr.Put([]byte(k), v, LogAuto)
				synced[k] = v
			}
			s.SyncLog()

			// Unsynced phase: may or may not survive, but recovery must
			// be a consistent prefix (no partial values, no corruption).
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("u/f%04d", i)
				tr.Put([]byte(k), []byte("unsynced"), LogAuto)
			}

			// Crash with a random fraction of unflushed writes surviving.
			keep := 0
			if n := dev.UnflushedWrites(); n > 0 {
				keep = rnd.Intn(n + 1)
			}
			dev.Crash(keep)

			s2, err := Open(env, alloc, cfg, backend)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			tr2 := s2.Meta()
			for k, v := range synced {
				got, ok, _ := tr2.Get([]byte(k))
				if !ok || !bytes.Equal(got, v) {
					t.Fatalf("synced key %q lost or corrupted after crash", k)
				}
			}
			// Unsynced keys must be a prefix: if u/fN survived, all
			// u/fM with M<N survived (log replay is ordered).
			last := -1
			holes := false
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("u/f%04d", i)
				if _, ok, _ := tr2.Get([]byte(k)); ok {
					if holes {
						t.Fatalf("unsynced key %q survived after a hole (not prefix-consistent)", k)
					}
					last = i
				} else {
					holes = true
				}
			}
			_ = last
		})
	}
}

// TestCrashDuringCheckpoint crashes mid-checkpoint and verifies the
// previous checkpoint still recovers.
func TestCrashDuringCheckpoint(t *testing.T) {
	env := sim.NewEnv(9)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, berr := sfl.NewDefault(env, dev)
	if berr != nil {
		panic(berr)
	}
	cfg := DefaultConfig()
	cfg.NodeSize = 32 << 10
	cfg.CacheBytes = 4 << 20
	alloc := kmem.New(env, true)
	s, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.Meta().Put(k(i), v(i, 64), LogAuto)
	}
	s.Checkpoint() // durable state A
	for i := 1000; i < 2000; i++ {
		s.Meta().Put(k(i), v(i, 64), LogAuto)
	}
	// Begin tracking now: everything from here on may be torn.
	dev.EnableCrashTracking()
	s.Checkpoint()
	// Tear the checkpoint: drop ALL writes since tracking began,
	// including the new superblock.
	dev.Crash(0)
	s2, err := Open(env, alloc, cfg, backend)
	if err != nil {
		t.Fatalf("recovery after torn checkpoint: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if _, ok, _ := s2.Meta().Get(k(i)); !ok {
			t.Fatalf("state-A key %d lost after torn checkpoint", i)
		}
	}
}
