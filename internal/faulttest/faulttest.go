// Package faulttest mounts the catalogue's file systems (internal/systems)
// over an injected-fault device stack and drives deterministic workloads
// through them, checking the end-to-end error contract (DESIGN.md §10): faults
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

	"betrfs/internal/betree"
	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
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
	return buildWith(name, seed, scale, plan, pol, 0, nil)
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
	return buildWith(name, seed, scale, plan, pol, workers, nil)
}

// buildWith constructs the system; workers == 0 means the deterministic
// single-goroutine configuration, workers >= 1 the concurrent one. A
// non-nil tune edits this copy of the catalogue's betrfs tree config before
// construction: the self-healing sweeps turn write-path relocation off for
// a negative control.
func buildWith(name string, seed uint64, scale int64, plan blockdev.FaultPlan, pol blockdev.RetryPolicy, workers int, tune func(*betree.Config)) (*System, error) {
	sys, err := systems.Lookup(name)
	if err != nil {
		return nil, fmt.Errorf("faulttest: %w", err)
	}
	if tune != nil {
		tune(&sys.Betr.Tree)
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

// FileContent returns the deterministic payload for file index i: every
// read-back check in the sweeps verifies against it.
func FileContent(i, size int) []byte {
	p := make([]byte, size)
	for j := range p {
		p[j] = byte(i*131 + j*7 + 1)
	}
	return p
}

// Workload drives a deterministic mixed workload — directory tree,
// file creates, writes, fsyncs, renames, removes, a final sync — and
// returns the first error a fault surfaced (nil when retries absorbed
// everything). Panics are never part of the contract; they propagate to
// the caller as test failures. The surviving files and their sizes are
// returned for read-back verification.
func Workload(m *vfs.Mount, seed uint64, files int) (map[string]int, error) {
	rnd := sim.NewRand(seed)
	live := map[string]int{}
	if err := m.MkdirAll("work/sub"); err != nil {
		return live, fmt.Errorf("mkdir: %w", err)
	}
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("work/f%04d", i)
		f, err := m.Create(path)
		if err != nil {
			return live, fmt.Errorf("create %s: %w", path, err)
		}
		size := 512 + rnd.Intn(3*4096)
		if _, err := f.Write(FileContent(i, size)); err != nil {
			return live, fmt.Errorf("write %s: %w", path, err)
		}
		if i%4 == 0 {
			if err := f.Fsync(); err != nil {
				return live, fmt.Errorf("fsync %s: %w", path, err)
			}
		}
		f.Close()
		live[path] = size
	}
	// Rename a slice of the files into the subdirectory.
	for i := 0; i < files; i += 5 {
		old := fmt.Sprintf("work/f%04d", i)
		nw := fmt.Sprintf("work/sub/f%04d", i)
		if err := m.Rename(old, nw); err != nil {
			return live, fmt.Errorf("rename %s: %w", old, err)
		}
		live[nw] = live[old]
		delete(live, old)
	}
	// Remove another slice.
	for i := 1; i < files; i += 7 {
		path := fmt.Sprintf("work/f%04d", i)
		if _, ok := live[path]; !ok {
			continue
		}
		if err := m.Remove(path); err != nil {
			return live, fmt.Errorf("remove %s: %w", path, err)
		}
		delete(live, path)
	}
	if err := m.Sync(); err != nil {
		return live, fmt.Errorf("sync: %w", err)
	}
	return live, nil
}

// VerifyFiles reads every surviving workload file back and checks its
// bytes against FileContent. It returns the first mismatch or read error.
func VerifyFiles(m *vfs.Mount, live map[string]int) error {
	for path, size := range live {
		var idx int
		if _, err := fmt.Sscanf(path[len(path)-4:], "%d", &idx); err != nil {
			return fmt.Errorf("bad workload path %s: %w", path, err)
		}
		f, err := m.Open(path)
		if err != nil {
			return fmt.Errorf("open %s: %w", path, err)
		}
		buf := make([]byte, size)
		n, err := f.ReadAt(buf, 0)
		if err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
		if n != size {
			return fmt.Errorf("read %s: got %d bytes, want %d", path, n, size)
		}
		want := FileContent(idx, size)
		for j := range buf {
			if buf[j] != want[j] {
				return fmt.Errorf("%s: byte %d = %#x, want %#x", path, j, buf[j], want[j])
			}
		}
		f.Close()
	}
	return nil
}
