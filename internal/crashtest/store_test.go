package crashtest

import (
	"fmt"
	"maps"

	"betrfs/internal/betree"
	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/kmem"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
)

// The fifth system under test is the raw SFL-backed Bε-tree store, below
// the VFS and BetrFS schema layers. Its crash contract is stricter than
// the file-system oracle: the write-ahead log totally orders mutations,
// so the recovered store must equal the state after some operation
// prefix at least as long as the last synced one — not merely a per-key
// mix of versions.

// StoreOp is one KV operation: a Put of Key→Val, or a Sync barrier.
type StoreOp struct {
	Key, Val string
	Sync     bool
}

// StandardStoreOps builds a deterministic op sequence: a synced
// population phase, then unsynced overwrites and inserts. Values stay
// small enough that LogAuto routes them through the log, which is what
// gives the prefix guarantee being checked.
func StandardStoreOps(seed uint64, n int) []StoreOp {
	rnd := sim.NewRand(seed)
	var ops []StoreOp
	for i := 0; i < n; i++ {
		ops = append(ops, StoreOp{Key: fmt.Sprintf("k%04d", i), Val: fmt.Sprintf("v%04d.%d", i, rnd.Intn(1000))})
	}
	ops = append(ops, StoreOp{Sync: true})
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%04d", rnd.Intn(2*n))
		ops = append(ops, StoreOp{Key: k, Val: fmt.Sprintf("w%04d.%d", i, rnd.Intn(1000))})
	}
	return ops
}

// RunStoreTrial applies ops to a fresh SFL-backed store, crashes at
// spec, reopens, and checks prefix consistency.
func RunStoreTrial(ops []StoreOp, spec CrashSpec) []Violation {
	const name = "betree-store"
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	cfg := betrfs.V06Config().Tree
	backend, err := sfl.NewDefault(env, dev)
	if err != nil {
		panic(fmt.Sprintf("crashtest: sfl format: %v", err))
	}
	st, err := betree.Open(env, kmem.New(env, true), cfg, backend)
	if err != nil {
		panic(fmt.Sprintf("crashtest: store format: %v", err))
	}
	dev.EnableCrashTracking()

	// states[i] is the KV state after i mutations; floor is the state
	// index covered by the last Sync.
	keys := map[string]bool{}
	cur := map[string]string{}
	states := []map[string]string{maps.Clone(cur)}
	floor := 0
	for _, op := range ops {
		if op.Sync {
			st.Sync()
			floor = len(states) - 1
			continue
		}
		st.Meta().Put([]byte(op.Key), []byte(op.Val), betree.LogAuto)
		cur[op.Key] = op.Val
		keys[op.Key] = true
		states = append(states, maps.Clone(cur))
	}
	// Background log writeback: put the unsynced log tail on the device
	// (without a barrier) so the crash has something to tear.
	st.Log().WriteOut()
	spec.apply(dev)

	var st2 *betree.Store
	if err := guard(func() {
		b2, berr := sfl.NewDefault(env, dev)
		if berr != nil {
			panic(berr)
		}
		s2, rerr := betree.Open(env, kmem.New(env, true), cfg, b2)
		if rerr != nil {
			panic(rerr)
		}
		st2 = s2
	}); err != nil {
		return []Violation{{System: name, Spec: spec.String(), Detail: "reopen failed: " + err.Error()}}
	}

	recovered := map[string]string{}
	if err := guard(func() {
		for k := range keys {
			v, ok, gerr := st2.Meta().Get([]byte(k))
			if gerr != nil {
				panic(fmt.Sprintf("Get(%s): %v", k, gerr))
			}
			if ok {
				recovered[k] = string(v)
			}
		}
	}); err != nil {
		return []Violation{{System: name, Spec: spec.String(), Detail: "post-recovery read: " + err.Error()}}
	}

	for j := floor; j < len(states); j++ {
		if maps.Equal(states[j], recovered) {
			return nil
		}
	}
	return []Violation{{
		System: name, Spec: spec.String(),
		Detail: fmt.Sprintf("recovered state matches no op prefix in [%d,%d]", floor, len(states)-1),
	}}
}
