package logfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"betrfs/internal/blobfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/metrics/metricstest"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

func newMount(t testing.TB, scale int64) (*sim.Env, *blockdev.Dev, *FS, *vfs.Mount) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(scale))
	fs := New(env, dev)
	cfg := vfs.DefaultConfig()
	cfg.CacheBytes = 64 << 20
	return env, dev, fs, vfs.NewMount(env, fs, cfg)
}

func TestBasicRoundTrip(t *testing.T) {
	_, _, _, m := newMount(t, 64)
	f, _ := m.Create("a")
	payload := bytes.Repeat([]byte{3}, 3*BlockSize+17)
	f.Write(payload)
	f.Close()
	m.DropCaches()
	g, err := m.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	n, _ := g.ReadAt(got, 0)
	if n != len(payload) || !bytes.Equal(got, payload) {
		t.Fatal("round trip failed")
	}
}

func TestNewWritesAppendSequentially(t *testing.T) {
	_, dev, _, m := newMount(t, 64)
	f, _ := m.Create("seq")
	f.Write(make([]byte, 32<<20))
	f.Fsync()
	st := dev.Stats()
	if st.RandWrites > st.SeqWrites {
		t.Fatalf("log-structured writes mostly random: seq=%d rand=%d",
			st.SeqWrites, st.RandWrites)
	}
}

func TestOverwriteUsesIPU(t *testing.T) {
	_, _, fs, m := newMount(t, 64)
	f, _ := m.Create("f")
	f.Write(make([]byte, 1<<20))
	f.Fsync()
	n := fs.Node(2)
	before := map[int64]int64{}
	for l, p := range n.Blocks {
		before[l] = p
	}
	// Overwrite existing blocks: addresses must not move (IPU).
	f.WriteAt(bytes.Repeat([]byte{9}, 1<<20), 0)
	f.Fsync()
	for l, p := range n.Blocks {
		if before[l] != p {
			t.Fatalf("overwrite relocated block %d (%d -> %d); IPU expected", l, before[l], p)
		}
	}
}

func TestSegmentCleaningReclaimsSpace(t *testing.T) {
	env := sim.NewEnv(1)
	// Tiny device so the main area has few segments.
	prof := blockdev.SamsungEVO860()
	prof.Capacity = 96 << 20
	dev := blockdev.New(env, prof)
	fs := New(env, dev)
	m := vfs.NewMount(env, fs, vfs.DefaultConfig())
	// Interleave small appends to two files so segments hold a mix, then
	// delete one file: its blocks leave every segment half dead, and the
	// cleaner must migrate the survivors to make free segments.
	for round := 0; round < 14; round++ {
		live, _ := m.OpenFile(fmt.Sprintf("live%d", round), true, false)
		dead, _ := m.OpenFile(fmt.Sprintf("dead%d", round), true, false)
		for chunk := 0; chunk < 16; chunk++ {
			live.WriteAt(make([]byte, 128<<10), int64(chunk)<<17)
			live.Fsync()
			dead.WriteAt(make([]byte, 128<<10), int64(chunk)<<17)
			dead.Fsync()
		}
		m.Remove(fmt.Sprintf("dead%d", round))
	}
	// Allocation pressure: a large write forces segment reclamation.
	big, _ := m.Create("big")
	big.Write(make([]byte, 40<<20))
	big.Fsync()
	if metricstest.Counter(t, env.Metrics, "logfs.segment.cleaned") == 0 {
		t.Fatal("segment cleaner never ran despite half-dead segments")
	}
	// All live data still readable.
	for i := 0; i < 14; i++ {
		if _, err := m.Open(fmt.Sprintf("live%d", i)); err != nil {
			t.Fatalf("file live%d unreadable after cleaning: %v", i, err)
		}
	}
}

func TestRecoverAfterCheckpoint(t *testing.T) {
	env, dev, fs, m := newMount(t, 64)
	m.MkdirAll("d")
	f, _ := m.Create("d/file")
	f.Write([]byte("persistent"))
	f.Close()
	m.Sync() // checkpoint

	fs2, err := Recover(env, dev)
	if err != nil {
		t.Fatal(err)
	}
	m2 := vfs.NewMount(env, fs2, vfs.DefaultConfig())
	g, err := m2.Open("d/file")
	if err != nil {
		t.Fatalf("file lost after recovery: %v", err)
	}
	buf := make([]byte, 16)
	n, _ := g.ReadAt(buf, 0)
	if string(buf[:n]) != "persistent" {
		t.Fatal("data corrupted across recovery")
	}
	_ = fs
}

func TestFsyncDurableWithoutCheckpoint(t *testing.T) {
	env, dev, _, m := newMount(t, 64)
	m.Sync()
	dev.EnableCrashTracking()
	f, _ := m.Create("hot")
	f.Write([]byte("fsynced"))
	f.Fsync()                        // node blob + NAT entry, no full checkpoint
	dev.Crash(dev.UnflushedWrites()) // keep everything up to the fsync barrier

	fs2, err := Recover(env, dev)
	if err != nil {
		t.Fatal(err)
	}
	m2 := vfs.NewMount(env, fs2, vfs.DefaultConfig())
	if _, err := m2.Open("hot"); err != nil {
		t.Fatalf("fsynced file lost without checkpoint: %v", err)
	}
}

func TestNodeBlobsSpillAcrossBlocks(t *testing.T) {
	_, _, fs, m := newMount(t, 64)
	m.MkdirAll("big")
	for i := 0; i < 2000; i++ {
		f, _ := m.Create(fmt.Sprintf("big/file-with-a-longish-name-%05d", i))
		f.Close()
	}
	m.Sync()
	ino, _, err := fs.Lookup(blobfs.RootIno, "big")
	if err != nil {
		t.Fatal(err)
	}
	ent := fs.Table[ino.(blobfs.Ino)]
	if ent.Count < 2 {
		t.Fatalf("2000-entry directory blob fits in %d block(s)?", ent.Count)
	}
	// And it must still decode after a cache drop.
	fs.DropCaches()
	ents, _ := fs.ReadDir(ino)
	if len(ents) != 2000 {
		t.Fatalf("decoded %d entries, want 2000", len(ents))
	}
}

// TestCreatePastNATIsNoSpace churns creates and removes past the NAT's
// capacity on a 1/2048 SSD, then syncs a file and recovers. Create must
// never hand out a number the NAT cannot locate: the synced file reads
// back intact, or its Create failed with ENOSPC. A file synced before the
// churn must survive too.
func TestCreatePastNATIsNoSpace(t *testing.T) {
	env, dev, fs, m := newMount(t, 2048)
	m.Sync()
	want := map[string]string{}
	writeSynced(t, m, want, "early", "synced before the churn")
	for i := 0; i < int(fs.MaxInos())+8; i++ {
		f, err := m.Create("churn")
		if errors.Is(err, vfs.ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		f.Close()
		if err := m.Remove("churn"); err != nil {
			t.Fatalf("remove %d: %v", i, err)
		}
	}
	writeSynced(t, m, want, "late", "synced after the churn")
	fs2, err := Recover(env, dev)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	m2 := vfs.NewMount(env, fs2, vfs.DefaultConfig())
	for name, data := range want {
		f, err := m2.Open(name)
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
