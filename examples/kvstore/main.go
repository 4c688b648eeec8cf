// kvstore: use the Bε-tree key-value store directly — the layer beneath
// BetrFS — to see write optimization at work: random upserts become large
// sequential node writes, and range deletes are single messages.
package main

import (
	"fmt"

	"betrfs/internal/betree"
	"betrfs/internal/blockdev"
	"betrfs/internal/kmem"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
)

func main() {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	backend, err := sfl.NewDefault(env, dev)
	if err != nil {
		panic(err)
	}
	store, err := betree.Open(env, kmem.New(env, true), betree.DefaultConfig(), backend)
	if err != nil {
		panic(err)
	}
	tr := store.Meta()

	// Random small inserts: each is a message into the root; batches
	// flush down in node-sized units.
	rnd := sim.NewRand(7)
	const n = 200_000
	start := env.Now()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("user/%06d/attr", rnd.Intn(1_000_000))
		val := fmt.Sprintf("value-%d", i)
		tr.Put([]byte(key), []byte(val), betree.LogAuto)
	}
	store.Checkpoint() // force the tree to disk so the I/O pattern is visible
	insertTime := env.Now() - start
	nodes := env.Metrics.Counter("betree.node.write").Load()
	written := env.Metrics.Counter("betree.bytes.written").Load()
	fmt.Printf("%d random inserts in %v simulated (%.0f kop/s)\n",
		n, insertTime, float64(n)/insertTime.Seconds()/1e3)
	fmt.Printf("  device writes: %d nodes, %d MiB (avg write %d KiB — write optimization)\n",
		nodes, written>>20, written/max(nodes, 1)>>10)

	// Point and range queries.
	tr.Put([]byte("app/config/mode"), []byte("fast"), betree.LogAuto)
	if v, ok, _ := tr.Get([]byte("app/config/mode")); ok {
		fmt.Printf("point query: app/config/mode = %s\n", v)
	}

	count := 0
	tr.Scan([]byte("user/"), []byte("user0"), func(k, v []byte) bool {
		count++
		return count < 1_000_000
	})
	fmt.Printf("range scan found %d live user keys\n", count)

	// One range delete removes them all.
	start = env.Now()
	tr.DeleteRange([]byte("user/"), []byte("user0"), betree.LogAuto)
	fmt.Printf("range delete of %d keys took %v (one message)\n", count, env.Now()-start)
	fmt.Printf("remaining user keys: %d\n", tr.Count([]byte("user/"), []byte("user0")))
}
