package extfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/ioerr"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

func newMount(t testing.TB, prof Profile) (*sim.Env, *blockdev.Dev, *FS, *vfs.Mount) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	fs := New(env, dev, prof)
	m := vfs.NewMount(env, fs, vfs.DefaultConfig())
	return env, dev, fs, m
}

func TestCreateWriteReadFile(t *testing.T) {
	_, _, _, m := newMount(t, Ext4Profile())
	f, err := m.Create("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, extfs")
	f.Write(data)
	f.Close()

	g, err := m.Open("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, _ := g.ReadAt(buf, 0)
	if !bytes.Equal(buf[:n], data) {
		t.Fatalf("read %q, want %q", buf[:n], data)
	}
}

func TestDataSurvivesCacheDrop(t *testing.T) {
	_, _, _, m := newMount(t, Ext4Profile())
	if err := m.MkdirAll("a/b/c"); err != nil {
		t.Fatal(err)
	}
	f, _ := m.Create("a/b/c/file")
	payload := bytes.Repeat([]byte{0x5a}, 3*vfs.PageSize+123)
	f.Write(payload)
	f.Close()
	m.DropCaches()

	g, err := m.Open("a/b/c/file")
	if err != nil {
		t.Fatalf("open after drop: %v", err)
	}
	got := make([]byte, len(payload))
	n, _ := g.ReadAt(got, 0)
	if n != len(payload) || !bytes.Equal(got, payload) {
		t.Fatalf("data mismatch after cache drop (n=%d)", n)
	}
}

func TestDirectoriesAndReaddir(t *testing.T) {
	_, _, _, m := newMount(t, XFSProfile())
	m.MkdirAll("dir")
	for i := 0; i < 20; i++ {
		f, err := m.Create(fmt.Sprintf("dir/f%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	ents, err := m.ReadDir("dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 20 {
		t.Fatalf("readdir returned %d entries", len(ents))
	}
	// XFS flavor: sorted.
	for i := 1; i < len(ents); i++ {
		if ents[i-1].Name >= ents[i].Name {
			t.Fatal("xfs readdir not sorted")
		}
	}
}

func TestExt4HashedReaddirOrder(t *testing.T) {
	_, _, _, m := newMount(t, Ext4Profile())
	m.MkdirAll("dir")
	for i := 0; i < 50; i++ {
		f, _ := m.Create(fmt.Sprintf("dir/f%02d", i))
		f.Close()
	}
	ents, _ := m.ReadDir("dir")
	sorted := true
	for i := 1; i < len(ents); i++ {
		if ents[i-1].Name > ents[i].Name {
			sorted = false
		}
	}
	if sorted {
		t.Fatal("ext4 readdir unexpectedly sorted (htree hash order expected)")
	}
}

func TestRemoveFreesSpace(t *testing.T) {
	_, _, fs, m := newMount(t, Ext4Profile())
	f, _ := m.Create("big")
	f.Write(bytes.Repeat([]byte{1}, 1<<20))
	f.Close()
	m.Sync()
	used := func() int64 {
		n := int64(0)
		for b := int64(0); b < fs.lay.dataBlocks; b++ {
			if fs.bitGet(b) {
				n++
			}
		}
		return n
	}
	before := used()
	if before < 256 {
		t.Fatalf("expected >=256 blocks used, got %d", before)
	}
	if err := m.Remove("big"); err != nil {
		t.Fatal(err)
	}
	// Frees are deferred until the journal commit that records the
	// remove is durable (JBD semantics), so sync before counting.
	m.Sync()
	if after := used(); after >= before {
		t.Fatalf("remove did not free blocks: %d -> %d", before, after)
	}
}

func TestRenameAcrossDirs(t *testing.T) {
	_, _, _, m := newMount(t, Ext4Profile())
	m.MkdirAll("a")
	m.MkdirAll("b")
	f, _ := m.Create("a/x")
	f.Write([]byte("payload"))
	f.Close()
	if err := m.Rename("a/x", "b/y"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("a/x"); err != vfs.ErrNotExist {
		t.Fatalf("old path still exists: %v", err)
	}
	g, err := m.Open("b/y")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := g.ReadAt(buf, 0)
	if string(buf[:n]) != "payload" {
		t.Fatal("rename lost data")
	}
}

func TestRmdirNonEmptyFails(t *testing.T) {
	_, _, _, m := newMount(t, Ext4Profile())
	m.MkdirAll("d")
	f, _ := m.Create("d/f")
	f.Close()
	if err := m.Rmdir("d"); err != vfs.ErrNotEmpty {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	m.Remove("d/f")
	if err := m.Rmdir("d"); err != nil {
		t.Fatalf("rmdir empty: %v", err)
	}
}

func TestSequentialAllocationIsContiguous(t *testing.T) {
	_, _, fs, m := newMount(t, Ext4Profile())
	f, _ := m.Create("seq")
	f.Write(bytes.Repeat([]byte{7}, 8<<20))
	f.Close()
	m.Sync()
	ino, _, err := fs.Lookup(rootIno, "seq")
	if err != nil {
		t.Fatal(err)
	}
	x := fs.inode(ino.(Ino))
	if len(x.extents) > 4 {
		t.Fatalf("sequential 8MiB file fragmented into %d extents", len(x.extents))
	}
}

func TestCrashRecoverySyncedSurvives(t *testing.T) {
	env := sim.NewEnv(2)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	fs := New(env, dev, Ext4Profile())
	m := vfs.NewMount(env, fs, vfs.DefaultConfig())
	m.MkdirAll("d")
	f, _ := m.Create("d/file")
	f.Write(bytes.Repeat([]byte{9}, 10000))
	f.Fsync()
	f.Close()
	m.Sync()

	dev.EnableCrashTracking()
	// Unsynced garbage after the sync point.
	g, _ := m.Create("d/volatile")
	g.Write([]byte("gone"))
	g.Close()
	dev.Crash(0)

	fs2, err := Recover(env, dev, Ext4Profile())
	if err != nil {
		t.Fatal(err)
	}
	m2 := vfs.NewMount(env, fs2, vfs.DefaultConfig())
	h, err := m2.Open("d/file")
	if err != nil {
		t.Fatalf("synced file lost: %v", err)
	}
	buf := make([]byte, 10000)
	n, _ := h.ReadAt(buf, 0)
	if n != 10000 || !bytes.Equal(buf, bytes.Repeat([]byte{9}, 10000)) {
		t.Fatal("synced data corrupted after crash")
	}
}

func TestJournalReplayAfterCrash(t *testing.T) {
	env := sim.NewEnv(3)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	fs := New(env, dev, Ext4Profile())
	m := vfs.NewMount(env, fs, vfs.DefaultConfig())
	m.Sync() // baseline superblock
	// Journaled-but-not-checkpointed namespace ops.
	m.MkdirAll("x/y")
	for i := 0; i < 10; i++ {
		f, _ := m.Create(fmt.Sprintf("x/y/f%d", i))
		f.Close()
	}
	fs.commit() // journal committed, metadata NOT written back in place
	dev.EnableCrashTracking()
	dev.Crash(0) // nothing after this point anyway

	fs2, err := Recover(env, dev, Ext4Profile())
	if err != nil {
		t.Fatal(err)
	}
	m2 := vfs.NewMount(env, fs2, vfs.DefaultConfig())
	for i := 0; i < 10; i++ {
		if _, err := m2.Stat(fmt.Sprintf("x/y/f%d", i)); err != nil {
			t.Fatalf("journaled create f%d lost: %v", i, err)
		}
	}
}

func TestLowLevelFileRoundTrip(t *testing.T) {
	_, _, fs, _ := newMount(t, Ext4Profile())
	lf := fs.OpenLowLevel("betrfs.data", 64<<20)
	data := bytes.Repeat([]byte{0xcd}, 128<<10)
	lf.PWrite(data, 12288)
	got := make([]byte, len(data))
	lf.PRead(got, 12288)
	if !bytes.Equal(got, data) {
		t.Fatal("lowlevel round trip failed")
	}
	// Unaligned write.
	lf.PWrite([]byte("abc"), 5000)
	small := make([]byte, 3)
	lf.PRead(small, 5000)
	if string(small) != "abc" {
		t.Fatal("unaligned lowlevel write failed")
	}
}

func TestLowLevelAsyncWrite(t *testing.T) {
	env, _, fs, _ := newMount(t, Ext4Profile())
	lf := fs.OpenLowLevel("wal", 8<<20)
	data := bytes.Repeat([]byte{1}, 1<<20)
	wait := lf.SubmitPWrite(data, 0)
	before := env.Now()
	wait()
	if env.Now() < before {
		t.Fatal("wait went backwards")
	}
	got := make([]byte, len(data))
	lf.PRead(got, 0)
	if !bytes.Equal(got, data) {
		t.Fatal("async write data mismatch")
	}
}

func TestRandomWritesSlowerThanSequential(t *testing.T) {
	envSeq := sim.NewEnv(1)
	devS := blockdev.New(envSeq, blockdev.SamsungEVO860().Scale(64))
	fsS := New(envSeq, devS, Ext4Profile())
	mS := vfs.NewMount(envSeq, fsS, vfs.DefaultConfig())
	f, _ := mS.Create("f")
	f.Write(bytes.Repeat([]byte{1}, 32<<20))
	f.Fsync()
	seqTime := envSeq.Now()

	envR := sim.NewEnv(1)
	devR := blockdev.New(envR, blockdev.SamsungEVO860().Scale(64))
	fsR := New(envR, devR, Ext4Profile())
	mR := vfs.NewMount(envR, fsR, vfs.DefaultConfig())
	g, _ := mR.Create("f")
	g.Write(bytes.Repeat([]byte{1}, 32<<20)) // build the file
	g.Fsync()
	base := envR.Now()
	rnd := sim.NewRand(4)
	buf := make([]byte, vfs.PageSize)
	for i := 0; i < 2048; i++ {
		g.WriteAt(buf, int64(rnd.Intn(32<<20/vfs.PageSize))*vfs.PageSize)
	}
	g.Fsync()
	mR.Sync()
	randTime := envR.Now() - base

	// 2048 random 4K writes = 8MiB; sequential 32MiB took seqTime.
	// Per-byte, random must be far slower.
	seqPerByte := float64(seqTime) / float64(32<<20)
	randPerByte := float64(randTime) / float64(8<<20)
	if randPerByte < 3*seqPerByte {
		t.Fatalf("random writes (%.1f ns/B) not much slower than sequential (%.1f ns/B)",
			randPerByte, seqPerByte)
	}
}

// TestInodeTableFullIsENOSPC fills the inode table of a 1/2048 SSD (4 000
// slots): the create past the last slot fails with ENOSPC, the mount stays
// writable, and every file acknowledged before it survives a sync, a cache
// drop and recovery.
func TestInodeTableFullIsENOSPC(t *testing.T) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(2048))
	fs := New(env, dev, Ext4Profile())
	m := vfs.NewMount(env, fs, vfs.DefaultConfig())
	if err := m.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	content := func(i int) []byte { return []byte(fmt.Sprintf("file %d", i)) }
	var acked int
	for ; ; acked++ {
		if acked == 5000 {
			t.Fatalf("5000 creates succeeded on a %d-inode table", fs.maxInodes())
		}
		f, err := m.Create(fmt.Sprintf("d/f%05d", acked))
		if errors.Is(err, vfs.ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatalf("create %d: %v", acked, err)
		}
		f.Write(content(acked))
		f.Close()
	}
	if int64(acked) != int64(fs.maxInodes())-3 { // inode 0 is unused, 1 is the root, 2 is d
		t.Errorf("%d creates before ENOSPC, want %d", acked, fs.maxInodes()-3)
	}
	if err := m.Mkdir("e"); !errors.Is(err, vfs.ErrNoSpace) {
		t.Errorf("mkdir on a full table: %v, want ENOSPC", err)
	}
	f, err := m.OpenFile("d/f00000", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("still writable"), 0); err != nil {
		t.Fatalf("write after ENOSPC: %v", err)
	}
	f.Close()
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}

	check := func(stage string, m *vfs.Mount) {
		t.Helper()
		ents, err := m.ReadDir("d")
		if err != nil || len(ents) != acked {
			t.Fatalf("%s: ReadDir lists %d entries (%v), want %d", stage, len(ents), err, acked)
		}
		for i := 1; i < acked; i++ {
			g, err := m.Open(fmt.Sprintf("d/f%05d", i))
			if err != nil {
				t.Fatalf("%s: file %d: %v", stage, i, err)
			}
			buf := make([]byte, 32)
			n, _ := g.ReadAt(buf, 0)
			g.Close()
			if !bytes.Equal(buf[:n], content(i)) {
				t.Fatalf("%s: file %d reads %q, want %q", stage, i, buf[:n], content(i))
			}
		}
	}
	m.DropCaches()
	check("after DropCaches", m)

	dev.EnableCrashTracking()
	dev.Crash(0)
	fs2, err := Recover(env, dev, Ext4Profile())
	if err != nil {
		t.Fatal(err)
	}
	check("after Recover", vfs.NewMount(env, fs2, vfs.DefaultConfig()))
}

// failingReads fails every read while fail is set.
type failingReads struct {
	blockdev.Device
	fail bool
}

func (d *failingReads) ReadAt(p []byte, off int64) error {
	if d.fail {
		return &ioerr.DeviceError{Op: "read", Off: off, Len: len(p)}
	}
	return d.Device.ReadAt(p, off)
}

func (d *failingReads) SubmitRead(p []byte, off int64) blockdev.Completion {
	c := d.Device.SubmitRead(p, off)
	if d.fail {
		c.Err = &ioerr.DeviceError{Op: "read", Off: off, Len: len(p)}
	}
	return c
}

// TestDirReadErrorIsNotAnEmptyDir: a directory whose blocks fail to read
// reports EIO, and once the device reads again its entries are all there —
// the failed read must not leave the directory loaded and empty.
func TestDirReadErrorIsNotAnEmptyDir(t *testing.T) {
	env := sim.NewEnv(1)
	dev := &failingReads{Device: blockdev.New(env, blockdev.SamsungEVO860().Scale(64))}
	m := vfs.NewMount(env, New(env, dev, Ext4Profile()), vfs.DefaultConfig())
	if err := m.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f, err := m.Create(fmt.Sprintf("d/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	m.DropCaches()
	dev.fail = true
	if _, err := m.Stat("d/f0"); !errors.Is(err, vfs.ErrIO) {
		t.Fatalf("stat through a failing read = %v, want EIO", err)
	}
	dev.fail = false
	for i := 0; i < 3; i++ {
		if _, err := m.Stat(fmt.Sprintf("d/f%d", i)); err != nil {
			t.Fatalf("d/f%d after the device recovered: %v", i, err)
		}
	}
}
