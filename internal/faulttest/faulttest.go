// Package faulttest mounts the catalogue's file systems (internal/systems)
// over an injected-fault device stack and runs crashtest programs on them,
// checking the end-to-end error contract (DESIGN.md §10): faults
// surface as errno-style errors at the mount API, never as panics;
// transient faults are absorbed by bounded retry; persistent write
// failure degrades the mount to read-only while reads keep serving
// cached and on-device data.
//
// The stack under every system is
//
//	vfs.Mount → FS → [SFL] → RetryDev → FaultDev → Dev
//
// so the same seeded fault plan exercises each file system's own error
// paths above an identical failing device.
package faulttest

import (
	"fmt"

	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/crashtest"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
	"betrfs/internal/systems"
	"betrfs/internal/vfs"
)

// DefaultScale shrinks the simulated SSD so sweeps stay fast; the fault
// plan, not the capacity, is what these tests exercise.
const DefaultScale = 256

// System is one file system mounted over the fault stack.
type System struct {
	Name  string
	Env   *sim.Env
	Dev   *blockdev.Dev
	Fault *blockdev.FaultDev
	Mount *vfs.Mount
	// Betr is non-nil for the betrfs systems (store-level scrub access).
	Betr *betrfs.FS
	// SFL is non-nil for betrfs-v0.6 (extent→device offset translation).
	SFL *sfl.SFL
}

// Counter reads a metric counter from the system's registry.
func (s *System) Counter(name string) int64 {
	return s.Env.Metrics.Counter(name).Load()
}

// Build constructs name over a fresh scaled device wrapped in the given
// fault plan and retry policy. Formatting happens through the fault
// stack too, so plans aggressive enough to defeat the retry bound can
// fail formatting; Build returns that error rather than panicking.
func Build(name string, seed uint64, scale int64, plan blockdev.FaultPlan, pol blockdev.RetryPolicy) (*System, error) {
	return buildWith(name, seed, scale, plan, pol, 0)
}

// BuildConcurrent is Build with the concurrency layer switched on: the
// VFS mount takes its client big lock, a betrfs tree store runs its
// reader/writer locking protocol, and the sim worker pool gets `workers`
// background goroutines. Goroutine interleaving makes results
// nondeterministic run-to-run, so concurrent fault tests assert the
// error contract (latching, degradation, no panics), never exact golden
// state.
func BuildConcurrent(name string, seed uint64, scale int64, plan blockdev.FaultPlan, pol blockdev.RetryPolicy, workers int) (*System, error) {
	if workers < 1 {
		workers = 1
	}
	return buildWith(name, seed, scale, plan, pol, workers)
}

// buildWith constructs the system; workers == 0 means the deterministic
// single-goroutine configuration, workers >= 1 the concurrent one.
func buildWith(name string, seed uint64, scale int64, plan blockdev.FaultPlan, pol blockdev.RetryPolicy, workers int) (*System, error) {
	sys, err := systems.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("faulttest: %w", err)
	}
	env := sim.NewEnv(seed)
	sz := systems.Sizes{Concurrent: workers > 0}
	if sz.Concurrent {
		env.Pool.SetWorkers(workers)
	}
	dev := blockdev.New(env, sys.Device().Scale(scale))
	fault := blockdev.NewFault(env, dev, plan)
	st, err := sys.New(env, blockdev.WithRetry(env, fault, pol), sz)
	if err != nil {
		return nil, fmt.Errorf("faulttest: %w", err)
	}
	s := &System{Name: name, Env: env, Dev: dev, Fault: fault, SFL: st.SFL, Mount: st.Mount}
	s.Betr, _ = st.FS.(*betrfs.FS)
	return s, nil
}

// content is the payload of file i.
func content(i, size int) []byte {
	p := make([]byte, size)
	for j := range p {
		p[j] = byte(i*131 + j*7 + 1)
	}
	return p
}

// Program is the fault sweeps' workload: a directory tree, files of
// 512 B to 12.5 KiB with every fourth fsynced as it is written, every
// fifth then moved into work/sub, every seventh of the others removed,
// and a closing sync.
func Program(seed uint64, files int) []crashtest.Step {
	rnd := sim.NewRand(seed)
	steps := []crashtest.Step{{Op: crashtest.OpMkdir, Path: "work/sub"}}
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("work/f%04d", i)
		steps = append(steps, crashtest.Step{Op: crashtest.OpWrite, Path: path, Data: content(i, 512+rnd.Intn(3*4096))})
		if i%4 == 0 {
			steps = append(steps, crashtest.Step{Op: crashtest.OpFsync, Path: path})
		}
	}
	for i := 0; i < files; i += 5 {
		steps = append(steps, crashtest.Step{Op: crashtest.OpRename, Path: fmt.Sprintf("work/f%04d", i), To: fmt.Sprintf("work/sub/f%04d", i)})
	}
	for i := 1; i < files; i += 7 {
		if i%5 != 0 {
			steps = append(steps, crashtest.Step{Op: crashtest.OpRemove, Path: fmt.Sprintf("work/f%04d", i)})
		}
	}
	return append(steps, crashtest.Step{Op: crashtest.OpSync})
}

// Run runs Program(seed, files) on the system's mount and returns the
// model to check the mount against. The error is the first step's the
// mount failed.
func (s *System) Run(seed uint64, files int) (*crashtest.Model, error) {
	mo := crashtest.NewModel()
	return mo, mo.Run(crashtest.MountTarget(s.Mount), Program(seed, files))
}
