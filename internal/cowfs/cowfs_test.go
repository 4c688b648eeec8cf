package cowfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

func newMount(t testing.TB, prof Profile) (*sim.Env, *blockdev.Dev, *FS, *vfs.Mount) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	fs := New(env, dev, prof)
	cfg := vfs.DefaultConfig()
	cfg.CacheBytes = 64 << 20
	return env, dev, fs, vfs.NewMount(env, fs, cfg)
}

func TestRoundTripBothProfiles(t *testing.T) {
	for _, prof := range []Profile{BtrfsProfile(), ZFSProfile()} {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			_, _, _, m := newMount(t, prof)
			payload := bytes.Repeat([]byte{0x3c}, 5*BlockSize+99)
			f, _ := m.Create("f")
			f.Write(payload)
			f.Close()
			m.DropCaches()
			g, err := m.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(payload))
			n, _ := g.ReadAt(got, 0)
			if n != len(payload) || !bytes.Equal(got, payload) {
				t.Fatal("round trip failed")
			}
		})
	}
}

func TestOverwriteRelocatesBlocks(t *testing.T) {
	_, _, fs, m := newMount(t, BtrfsProfile())
	f, _ := m.Create("f")
	f.Write(make([]byte, 1<<20))
	m.Sync()
	n := fs.Node(2)
	before := map[int64]int64{}
	for l, p := range n.Blocks {
		before[l] = p
	}
	f.WriteAt(bytes.Repeat([]byte{1}, 1<<20), 0)
	m.Sync()
	moved := 0
	for l, p := range n.Blocks {
		if before[l] != p {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("copy-on-write did not relocate any overwritten blocks")
	}
}

func TestDeferredFreeUntilTxg(t *testing.T) {
	_, _, fs, m := newMount(t, BtrfsProfile())
	f, _ := m.Create("f")
	f.Write(make([]byte, 256<<10))
	m.Sync()
	// Overwrite: old blocks must stay allocated until the txg commits.
	f.WriteAt(make([]byte, 256<<10), 0)
	f.Fsync() // write-back reaches the FS; fsync does not commit a txg
	if len(fs.deferred) == 0 {
		t.Fatal("no deferred frees pending after overwrite")
	}
	fs.txgCommit()
	if len(fs.deferred) != 0 {
		t.Fatal("txg commit did not release deferred frees")
	}
}

func TestZFSRecordRMWAmplification(t *testing.T) {
	// A single 4 KiB overwrite into a large file must read and rewrite a
	// whole record on the ZFS profile (32 blocks), but far less on Btrfs.
	measure := func(prof Profile) int64 {
		_, dev, _, m := newMount(t, prof)
		f, _ := m.Create("f")
		f.Write(make([]byte, 8<<20))
		m.Sync()
		m.DropCaches()
		g, _ := m.Open("f")
		before := dev.Stats().BytesWritten
		g.WriteAt(make([]byte, BlockSize), 4<<20)
		m.Sync()
		return dev.Stats().BytesWritten - before
	}
	zfs := measure(ZFSProfile())
	btrfs := measure(BtrfsProfile())
	if zfs < btrfs*2 {
		t.Fatalf("ZFS record RMW amplification missing: zfs=%d btrfs=%d bytes", zfs, btrfs)
	}
}

func TestChecksumChargedOnReads(t *testing.T) {
	env, _, _, m := newMount(t, ZFSProfile())
	f, _ := m.Create("f")
	f.Write(make([]byte, 1<<20))
	m.Sync()
	m.DropCaches()
	before := env.Stats.Checksum
	g, _ := m.Open("f")
	buf := make([]byte, 1<<20)
	g.ReadAt(buf, 0)
	if env.Stats.Checksum <= before {
		t.Fatal("reads did not charge checksum verification")
	}
}

func TestZilRecoverySyncedSurvives(t *testing.T) {
	env := sim.NewEnv(5)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	fs := New(env, dev, ZFSProfile())
	m := vfs.NewMount(env, fs, vfs.DefaultConfig())
	m.Sync() // first txg: uberblock exists
	dev.EnableCrashTracking()

	m.MkdirAll("d")
	f, _ := m.Create("d/mail")
	f.Write([]byte("synced payload"))
	f.Fsync() // ZIL records + flush, no txg
	g, _ := m.Create("d/unsynced")
	g.Write([]byte("gone"))
	dev.Crash(0) // lose everything unflushed (the fsync barrier protected the ZIL)

	fs2, err := Recover(env, dev, ZFSProfile())
	if err != nil {
		t.Fatal(err)
	}
	m2 := vfs.NewMount(env, fs2, vfs.DefaultConfig())
	h, err := m2.Open("d/mail")
	if err != nil {
		t.Fatalf("fsynced file lost: %v", err)
	}
	buf := make([]byte, 32)
	n, _ := h.ReadAt(buf, 0)
	if string(buf[:n]) != "synced payload" {
		t.Fatalf("fsynced data corrupted: %q", buf[:n])
	}
}

func TestTxgCommitPersistsNamespace(t *testing.T) {
	env := sim.NewEnv(6)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	fs := New(env, dev, BtrfsProfile())
	m := vfs.NewMount(env, fs, vfs.DefaultConfig())
	for i := 0; i < 50; i++ {
		m.MkdirAll(fmt.Sprintf("dir%02d", i))
	}
	m.Sync()
	fs2, err := Recover(env, dev, BtrfsProfile())
	if err != nil {
		t.Fatal(err)
	}
	m2 := vfs.NewMount(env, fs2, vfs.DefaultConfig())
	ents, _ := m2.ReadDir("")
	if len(ents) != 50 {
		t.Fatalf("recovered %d directories, want 50", len(ents))
	}
}

// TestCreatePastInodeMapIsNoSpace churns creates and removes past the
// inode map's capacity on a 1/2048 SSD, then syncs a file and recovers.
// Create must never hand out a number the map cannot locate: the synced
// file reads back intact, or its Create failed with ENOSPC. A file synced
// before the churn must survive too.
func TestCreatePastInodeMapIsNoSpace(t *testing.T) {
	for _, prof := range []Profile{BtrfsProfile(), ZFSProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			env := sim.NewEnv(1)
			dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(2048))
			fs := New(env, dev, prof)
			m := vfs.NewMount(env, fs, vfs.DefaultConfig())
			m.Sync() // first txg: an uberblock exists
			want := map[string]string{}
			writeSynced(t, m, want, "early", "synced before the churn")
			churn(t, m, int(fs.MaxInos())+8)
			writeSynced(t, m, want, "late", "synced after the churn")
			fs2, err := Recover(env, dev, prof)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			checkFiles(t, vfs.NewMount(env, fs2, vfs.DefaultConfig()), want)
		})
	}
}

// churn creates and removes one file n times, stopping at ENOSPC.
func churn(t *testing.T, m *vfs.Mount, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f, err := m.Create("churn")
		if errors.Is(err, vfs.ErrNoSpace) {
			return
		}
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		f.Close()
		if err := m.Remove("churn"); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}
}

// writeSynced creates name holding data and fsyncs it, recording it in
// want; a Create that fails with ENOSPC records nothing.
func writeSynced(t *testing.T, m *vfs.Mount, want map[string]string, name, data string) {
	t.Helper()
	f, err := m.Create(name)
	if errors.Is(err, vfs.ErrNoSpace) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(data)); err != nil {
		t.Fatal(err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	want[name] = data
}

func checkFiles(t *testing.T, m *vfs.Mount, want map[string]string) {
	t.Helper()
	for name, data := range want {
		f, err := m.Open(name)
		if err != nil {
			t.Fatalf("%s lost: %v", name, err)
		}
		buf := make([]byte, len(data)+1)
		n, _ := f.ReadAt(buf, 0)
		if string(buf[:n]) != data {
			t.Fatalf("%s reads back %q, want %q", name, buf[:n], data)
		}
	}
}
