// Quickstart: create a BetrFS v0.6 instance on a simulated SSD, write and
// read files through the VFS, and print what the storage stack did.
package main

import (
	"fmt"

	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/kmem"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

func main() {
	// One Env is one simulated machine: a virtual clock plus calibrated
	// CPU costs. All components charge time to it.
	env := sim.NewEnv(1)

	// A 250 GB-class SATA SSD, scaled down 64x for a quick run.
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))

	// BetrFS v0.6: Bε-tree on the Simple File Layer, all paper
	// optimizations enabled, cooperative memory management.
	backend, err := sfl.NewDefault(env, dev)
	if err != nil {
		panic(err)
	}
	fs, err := betrfs.New(env, kmem.New(env, true), betrfs.V06Config(), backend)
	if err != nil {
		panic(err)
	}
	m := vfs.NewMount(env, fs, vfs.DefaultConfig())

	// Use it like a file system.
	if err := m.MkdirAll("home/user/notes"); err != nil {
		panic(err)
	}
	f, err := m.Create("home/user/notes/todo.txt")
	if err != nil {
		panic(err)
	}
	f.Write([]byte("1. read the paper\n2. run the benchmarks\n"))
	f.Fsync()
	f.Close()

	g, err := m.Open("home/user/notes/todo.txt")
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 128)
	n, _ := g.ReadAt(buf, 0)
	fmt.Printf("read back %d bytes:\n%s\n", n, buf[:n])

	ents, _ := m.ReadDir("home/user/notes")
	fmt.Printf("directory listing: %d entries\n", len(ents))

	fmt.Printf("simulated elapsed time: %v\n", env.Now())
	st := dev.Stats()
	fmt.Printf("device I/O: %d writes (%d KiB), %d reads (%d KiB), %d flushes\n",
		st.Writes, st.BytesWritten>>10, st.Reads, st.BytesRead>>10, st.Flushes)
	reg := env.Metrics
	fmt.Printf("Bε-tree: %d nodes written, %d checkpoints\n",
		reg.Counter("betree.node.write").Load(), reg.Counter("betree.checkpoint.run").Load())
}
