// Package bench is the harness that regenerates every table and figure of
// the paper: it builds each file system on an identically scaled simulated
// SSD, runs the workload, and reports simulated throughput/latency next to
// the paper's published numbers.
package bench

import (
	"betrfs/internal/blockdev"
	"betrfs/internal/ftl"
	"betrfs/internal/sim"
	"betrfs/internal/systems"
	"betrfs/internal/vfs"
)

// Scale divides the paper's workload and hardware sizes. The default 64
// turns the 80 GiB sequential write into 1.25 GiB and the 12 GiB device
// write cache into 192 MiB, preserving every regime the paper exercises
// (cache overflow, RAM-exceeding datasets).
const DefaultScale = 64

// Instance is one mounted system under test. Dev is the raw simulated
// device (crash and corruption injection operate on it directly); FTL is
// the flash translation layer the file system actually writes through,
// carrying the device-lifetime ledger (io.waf, ftl.* — DESIGN.md §12).
type Instance struct {
	Name  string
	Env   *sim.Env
	Dev   *blockdev.Dev
	FTL   *ftl.Dev
	Mount *vfs.Mount
}

// Build constructs a named system on a fresh scaled device with the paper
// testbed's memory at the same scale. Valid names are the catalogue's
// (systems.Names); Build panics on any other, so a caller holding an
// unchecked name validates it with systems.Lookup first.
func Build(name string, scale int64) *Instance {
	return buildFTL(name, scale, 0, ftl.DefaultConfig())
}

// BuildConcurrent is Build with the concurrency layer switched on: the
// VFS mount takes its client big lock, a betrfs tree store runs its
// reader/writer locking protocol, and the sim worker pool gets `workers`
// background goroutines for flushing and writeback. Results are not
// deterministic run-to-run (goroutine interleaving is charge-visible), so
// golden comparisons must use Build.
func BuildConcurrent(name string, scale int64, workers int) *Instance {
	if workers < 1 {
		workers = 1
	}
	return buildFTL(name, scale, workers, ftl.DefaultConfig())
}

// buildFTL constructs the system over a simulated FTL, so all bench rows
// carry the device-lifetime ledger; the default configuration is
// timing-free (zero latencies), keeping golden cells bit-identical, and the
// aging rung passes TRIM-aware and TRIM-blind ones. workers == 0 means the
// deterministic single-goroutine configuration, workers >= 1 the
// concurrent one.
func buildFTL(name string, scale int64, workers int, fcfg ftl.Config) *Instance {
	sys, err := systems.Lookup(name)
	if err != nil {
		panic("bench: " + err.Error())
	}
	env := sim.NewEnv(1)
	sz := sys.Testbed(scale)
	if workers > 0 {
		env.Pool.SetWorkers(workers)
		sz.Concurrent = true
	}
	dev := blockdev.New(env, sys.Device().Scale(scale))
	fdev := ftl.New(env, dev, fcfg)
	st, err := sys.New(env, fdev, sz)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return &Instance{Name: name, Env: env, Dev: dev, FTL: fdev, Mount: st.Mount}
}
