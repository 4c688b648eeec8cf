package faulttest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"betrfs/internal/betree"
	"betrfs/internal/blockdev"
	"betrfs/internal/crashtest"
	"betrfs/internal/systems"
	"betrfs/internal/vfs"
)

// allEIO reports whether err, and every error it joins, is EIO-class.
func allEIO(err error) bool {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range j.Unwrap() {
			if !allEIO(e) {
				return false
			}
		}
		return true
	}
	return errors.Is(err, vfs.ErrIO)
}

// TestTransientFaultsAbsorbedByRetry injects seeded transient read and
// write faults under every system and checks the whole-stack contract:
// no panics, every operation succeeds because bounded retry absorbs the
// faults, read-back data is intact, no command exhausts its retries, and
// the mount never degrades. For the betrfs systems a post-sweep scrub
// must find every durable node checksum-clean.
func TestTransientFaultsAbsorbedByRetry(t *testing.T) {
	// The systems coalesce aggressively (a whole workload can be a few
	// dozen device commands), so the per-command probability is high to
	// guarantee the plan actually fires under every stack.
	plan := blockdev.FaultPlan{
		Seed:                 42,
		TransientReadProb:    0.05,
		TransientWriteProb:   0.05,
		TransientPersistence: 2,
	}
	// Six attempts cover a persistence-2 fault immediately followed by a
	// fresh independent fault at the same site.
	pol := blockdev.DefaultRetryPolicy()
	pol.MaxAttempts = 6
	for _, name := range systems.Core {
		t.Run(name, func(t *testing.T) {
			sys, err := Build(name, 1, DefaultScale, plan, pol)
			if err != nil {
				t.Fatalf("build under transient faults: %v", err)
			}
			mo, werr := sys.Run(7, 200)
			if werr != nil {
				t.Fatalf("workload error despite retry: %v", werr)
			}
			if err := mo.Check(sys.Mount); err != nil {
				t.Fatal(err)
			}
			// Cold read-back: dropping the caches forces the check onto
			// the device, exercising the read-retry path too.
			sys.Mount.DropCaches()
			if err := mo.Check(sys.Mount); err != nil {
				t.Fatalf("cold read-back under transient faults: %v", err)
			}
			if inj := sys.Counter("io.fault.read") + sys.Counter("io.fault.write"); inj == 0 {
				t.Fatal("plan injected no faults; sweep is vacuous")
			}
			if got := sys.Counter("io.retry.read") + sys.Counter("io.retry.write"); got == 0 {
				t.Fatal("faults were injected but nothing retried")
			}
			if errs := sys.Counter("io.error.read") + sys.Counter("io.error.write") + sys.Counter("io.error.flush"); errs != 0 {
				t.Fatalf("%d commands exhausted retries under a retry-coverable plan", errs)
			}
			if err := sys.Mount.Degraded(); err != nil {
				t.Fatalf("mount degraded under transient-only faults: %v", err)
			}
			if sys.Betr != nil {
				if err := sys.Betr.Store().Checkpoint(); err != nil {
					t.Fatalf("post-sweep checkpoint: %v", err)
				}
				for _, rep := range sys.Betr.Store().Scrub() {
					if rep.Err != nil {
						t.Errorf("post-sweep scrub: %s node %d: %v", rep.Tree, rep.ID, rep.Err)
					}
				}
			}
		})
	}
}

// TestPersistentWriteFailureDegradesMount kills the write path mid-run
// (the worn-out-SSD failure mode) and checks graceful degradation: the
// failure surfaces as an EIO-class error at fsync/sync, the mount flips
// read-only (EROFS on mutations), and every file written before the
// failure, and the one written after it, still reads back correct data.
func TestPersistentWriteFailureDegradesMount(t *testing.T) {
	for _, name := range systems.Core {
		t.Run(name, func(t *testing.T) {
			sys, err := Build(name, 2, DefaultScale, blockdev.FaultPlan{Seed: 9}, blockdev.DefaultRetryPolicy())
			if err != nil {
				t.Fatal(err)
			}
			m := sys.Mount
			mo, werr := sys.Run(11, 40)
			if werr != nil {
				t.Fatalf("fault-free workload failed: %v", werr)
			}
			if err := mo.Check(m); err != nil {
				t.Fatal(err)
			}

			sys.Fault.FailWritesNow()
			// A blind-write path may fail the write itself; either way the
			// error must be EIO-class, and the page cache keeps the bytes.
			serr := mo.Run(crashtest.MountTarget(m), []crashtest.Step{
				{Op: crashtest.OpWrite, Path: "work/after-death", Data: content(999, 8192)},
				{Op: crashtest.OpFsync, Path: "work/after-death"},
			})
			if _, err := m.Stat("work/after-death"); err != nil {
				t.Fatalf("create before degradation detected: %v", err)
			}
			if serr == nil {
				serr = m.Sync()
			}
			if serr == nil {
				t.Fatal("dead write path surfaced no error at fsync/sync")
			}
			if !errors.Is(serr, vfs.ErrIO) {
				t.Fatalf("fsync/sync after media death = %v, want EIO-class", serr)
			}
			if m.Degraded() == nil {
				t.Fatal("mount did not degrade read-only after persistent write failure")
			}
			if _, err := m.Create("work/denied"); !errors.Is(err, vfs.ErrReadOnly) {
				t.Fatalf("create on degraded mount = %v, want EROFS", err)
			}
			if err := m.Mkdir("work/denied-dir"); !errors.Is(err, vfs.ErrReadOnly) {
				t.Fatalf("mkdir on degraded mount = %v, want EROFS", err)
			}
			if err := m.Remove("work/f0002"); err != nil && !errors.Is(err, vfs.ErrReadOnly) && !errors.Is(err, vfs.ErrNotExist) {
				t.Fatalf("remove on degraded mount = %v, want EROFS", err)
			}
			// Reads must keep serving correct data.
			if err := mo.Check(m); err != nil {
				t.Fatalf("reads after degradation: %v", err)
			}
			if got := sys.Counter("vfs.remount.ro"); got != 1 {
				t.Fatalf("vfs.remount.ro = %d, want 1", got)
			}
		})
	}
}

// TestBitFlipsRecoveredByReread injects silent single-bit read corruption
// under BetrFS v0.6: node checksums detect the flips and a second read of
// the (intact) medium recovers, counted in io.retry.corrupt.
func TestBitFlipsRecoveredByReread(t *testing.T) {
	plan := blockdev.FaultPlan{Seed: 3, BitFlipProb: 0.02}
	sys, err := Build("betrfs-v0.6", 3, DefaultScale, plan, blockdev.DefaultRetryPolicy())
	if err != nil {
		t.Fatalf("build under bit flips: %v", err)
	}
	mo, werr := sys.Run(5, 200)
	if werr != nil {
		t.Fatalf("workload under bit flips: %v", werr)
	}
	// Checkpoint so every node is durable and clean — only clean nodes
	// leave the cache, and only cache misses read the device.
	if err := sys.Betr.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Per-file cold read-back: the whole dataset packs into a handful of
	// Bε-tree nodes, so one check is only a couple of device reads.
	// Dropping the caches before reading each name the program wrote
	// re-reads those nodes each time, giving the flip probability hundreds
	// of commands to land on — every one through the checksum-verified
	// node read path. A name the program moved or removed must be absent.
	target := crashtest.MountTarget(sys.Mount)
	for _, s := range Program(5, 200) {
		read := crashtest.Step{Op: crashtest.OpRead, Path: s.Path}
		if s.Op == crashtest.OpRename {
			read.Path = s.To
		} else if s.Op != crashtest.OpWrite {
			continue
		}
		sys.Mount.DropCaches()
		if err := mo.Run(target, []crashtest.Step{read}); err != nil {
			t.Fatalf("cold read-back under bit flips: %v", err)
		}
	}
	if err := mo.Check(sys.Mount); err != nil {
		t.Fatal(err)
	}
	if sys.Counter("io.fault.bitflip") == 0 {
		t.Fatal("plan injected no bit flips; test is vacuous")
	}
	if sys.Counter("io.retry.corrupt") == 0 {
		t.Fatal("bit flips were injected but no checksum-triggered re-read happened")
	}
}

// TestBadSectorReadsSurfaceEIO grows a media defect over the whole device
// after a synced population and checks that cold reads surface EIO-class
// errors (not panics, not silent zeros) while the mount stays mounted:
// every failure the check reports wraps EIO.
func TestBadSectorReadsSurfaceEIO(t *testing.T) {
	for _, name := range []string{"ext4", "betrfs-v0.6"} {
		t.Run(name, func(t *testing.T) {
			sys, err := Build(name, 4, DefaultScale, blockdev.FaultPlan{Seed: 4}, blockdev.DefaultRetryPolicy())
			if err != nil {
				t.Fatal(err)
			}
			mo, werr := sys.Run(13, 30)
			if werr != nil {
				t.Fatalf("fault-free workload failed: %v", werr)
			}
			if err := sys.Mount.Sync(); err != nil {
				t.Fatal(err)
			}
			sys.Mount.DropCaches()
			sys.Fault.AddBadRange(0, sys.Dev.Size())
			verr := mo.Check(sys.Mount)
			if verr == nil {
				t.Fatal("cold reads from fully-bad media reported no error")
			}
			if !allEIO(verr) {
				t.Fatalf("read from bad media = %v, want EIO-class", verr)
			}
		})
	}
}

// TestNoSpaceSurfacesENOSPC fills a tiny device through the VFS and
// checks ENOSPC semantics: the error class is ErrNoSpace, the mount does
// not degrade (ENOSPC is recoverable), and previously-written files still
// read back.
func TestNoSpaceSurfacesENOSPC(t *testing.T) {
	for _, name := range []string{"ext4", "betrfs-v0.6"} {
		t.Run(name, func(t *testing.T) {
			const scale = 8192 // ≈ 32 MiB device
			sys, err := Build(name, 5, scale, blockdev.FaultPlan{Seed: 5}, blockdev.DefaultRetryPolicy())
			if err != nil {
				t.Fatal(err)
			}
			m := sys.Mount
			if err := m.MkdirAll("fill"); err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte{0xdb}, 256<<10)
			var gotErr error
			wrote := 0
			for i := 0; i < 512 && gotErr == nil; i++ {
				path := fmt.Sprintf("fill/f%04d", i)
				f, err := m.Create(path)
				if err != nil {
					gotErr = err
					break
				}
				if _, err := f.Write(payload); err != nil {
					gotErr = err
				} else if err := f.Fsync(); err != nil {
					gotErr = err
				} else {
					wrote++
				}
				f.Close()
			}
			if gotErr == nil {
				gotErr = m.Sync()
			}
			if gotErr == nil {
				t.Fatalf("wrote %d×256KiB to a ≈32MiB device without ENOSPC", wrote)
			}
			if !errors.Is(gotErr, vfs.ErrNoSpace) {
				t.Fatalf("full device surfaced %v, want ENOSPC-class", gotErr)
			}
			if err := m.Degraded(); err != nil {
				t.Fatalf("ENOSPC degraded the mount: %v", err)
			}
			if wrote == 0 {
				t.Fatal("device full before any file landed; shrink the payload")
			}
			// The mount is not wedged: the first file still reads back.
			f, err := m.Open("fill/f0000")
			if err != nil {
				t.Fatalf("open after ENOSPC: %v", err)
			}
			buf := make([]byte, len(payload))
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatalf("read after ENOSPC: %v", err)
			}
			if !bytes.Equal(buf, payload) {
				t.Fatal("data mismatch after ENOSPC")
			}
			f.Close()
		})
	}
}

// TestScrubClassifiesMediaVsChecksum covers the betrfsck exit-code split
// at the library level: a checksum flip yields a Corrupt report, a grown
// media defect an Unreadable one, and the two are never confused.
func TestScrubClassifiesMediaVsChecksum(t *testing.T) {
	sys, err := Build("betrfs-v0.6", 6, DefaultScale, blockdev.FaultPlan{Seed: 6}, blockdev.DefaultRetryPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if _, werr := sys.Run(17, 40); werr != nil {
		t.Fatal(werr)
	}
	if err := sys.Mount.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Betr.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	clean := sys.Betr.Store().Scrub()
	for _, rep := range clean {
		if rep.Err != nil {
			t.Fatalf("pre-injection scrub dirty: %s node %d: %v", rep.Tree, rep.ID, rep.Err)
		}
	}
	if len(clean) < 2 {
		t.Fatalf("only %d durable nodes; need 2 to inject both fault classes", len(clean))
	}
	// Node extents are offsets into the tree's SFL file; translate to
	// device offsets via the static layout.
	devOff := func(rep betree.ScrubReport) int64 {
		return sys.SFL.DevOffset(rep.Tree, rep.Off)
	}
	flipped, dead := clean[0], clean[1]
	sys.Dev.CorruptFlip(devOff(flipped)+flipped.Len/2, 4, 99)
	sys.Fault.AddBadRange(devOff(dead), dead.Len)

	sawCorrupt, sawMedia := false, false
	for _, rep := range sys.Betr.Store().Scrub() {
		switch {
		case rep.Tree == flipped.Tree && rep.ID == flipped.ID:
			if !rep.Corrupt() || rep.Unreadable() {
				t.Errorf("flipped node classified corrupt=%v unreadable=%v (err %v)",
					rep.Corrupt(), rep.Unreadable(), rep.Err)
			}
			sawCorrupt = true
		case rep.Tree == dead.Tree && rep.ID == dead.ID:
			if !rep.Unreadable() {
				t.Errorf("bad-sector node not classified unreadable (err %v)", rep.Err)
			}
			sawMedia = true
		case rep.Err != nil:
			t.Errorf("collateral scrub failure: %s node %d: %v", rep.Tree, rep.ID, rep.Err)
		}
	}
	if !sawCorrupt || !sawMedia {
		t.Fatalf("scrub lost track of injected nodes (corrupt seen=%v, media seen=%v)", sawCorrupt, sawMedia)
	}
}
