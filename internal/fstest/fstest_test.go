// Package fstest runs one conformance suite over every file system in the
// repository: the three baselines (extfs ext4/xfs, logfs f2fs, cowfs
// btrfs/zfs) and BetrFS in both v0.4 (stacked) and v0.6 (SFL)
// configurations. Passing the same scenarios everywhere is what makes the
// benchmark comparisons meaningful.
package fstest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/metrics/metricstest"
	"betrfs/internal/sim"
	"betrfs/internal/systems"
	"betrfs/internal/vfs"
)

// build constructs a named file system over a fresh 1/64 SSD with caches
// that hold every conformance scenario.
func build(t testing.TB, name string) (*sim.Env, *vfs.Mount) {
	return buildSized(t, name, 64, systems.Sizes{NodeCache: 64 << 20, PageCache: 128 << 20})
}

// buildSized constructs a named file system over a fresh SSD scaled down by
// scale, with the memory sz gives it.
func buildSized(t testing.TB, name string, scale int64, sz systems.Sizes) (*sim.Env, *vfs.Mount) {
	t.Helper()
	sys, err := systems.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv(1)
	st, err := sys.New(env, blockdev.New(env, sys.Device().Scale(scale)), sz)
	if err != nil {
		t.Fatal(err)
	}
	return env, st.Mount
}

func forAll(t *testing.T, fn func(t *testing.T, m *vfs.Mount)) {
	for _, name := range systems.Table1 {
		name := name
		t.Run(name, func(t *testing.T) {
			_, m := build(t, name)
			fn(t, m)
		})
	}
}

func TestBasicFileLifecycle(t *testing.T) {
	forAll(t, func(t *testing.T, m *vfs.Mount) {
		f, err := m.Create("file.txt")
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("contents"))
		f.Close()
		a, err := m.Stat("file.txt")
		if err != nil || a.Size != 8 || a.Dir {
			t.Fatalf("stat: %+v %v", a, err)
		}
		g, _ := m.Open("file.txt")
		buf := make([]byte, 16)
		n, _ := g.ReadAt(buf, 0)
		if string(buf[:n]) != "contents" {
			t.Fatalf("read %q", buf[:n])
		}
		if err := m.Remove("file.txt"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Stat("file.txt"); err != vfs.ErrNotExist {
			t.Fatalf("stat after remove: %v", err)
		}
	})
}

func TestDeepDirectoryTree(t *testing.T) {
	forAll(t, func(t *testing.T, m *vfs.Mount) {
		if err := m.MkdirAll("a/b/c/d/e"); err != nil {
			t.Fatal(err)
		}
		f, err := m.Create("a/b/c/d/e/leaf")
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("x"))
		f.Close()
		ents, err := m.ReadDir("a/b/c/d")
		if err != nil || len(ents) != 1 || ents[0].Name != "e" || !ents[0].Dir {
			t.Fatalf("readdir: %v %v", ents, err)
		}
	})
}

func TestDataIntegrityAcrossCacheDrop(t *testing.T) {
	forAll(t, func(t *testing.T, m *vfs.Mount) {
		m.MkdirAll("dir")
		payload := make([]byte, 5*vfs.PageSize+777)
		for i := range payload {
			payload[i] = byte(i * 131)
		}
		f, _ := m.Create("dir/data")
		f.Write(payload)
		f.Close()
		m.DropCaches()
		g, err := m.Open("dir/data")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		n, _ := g.ReadAt(got, 0)
		if n != len(payload) || !bytes.Equal(got, payload) {
			t.Fatalf("data corrupted across cache drop (n=%d want %d)", n, len(payload))
		}
	})
}

func TestSparseFileReadsZero(t *testing.T) {
	forAll(t, func(t *testing.T, m *vfs.Mount) {
		f, _ := m.Create("sparse")
		f.WriteAt([]byte("end"), 10*vfs.PageSize)
		buf := make([]byte, 100)
		n, _ := f.ReadAt(buf, 5*vfs.PageSize)
		for i := 0; i < n; i++ {
			if buf[i] != 0 {
				t.Fatal("hole read non-zero")
			}
		}
	})
}

func TestOverwriteMiddle(t *testing.T) {
	forAll(t, func(t *testing.T, m *vfs.Mount) {
		f, _ := m.Create("f")
		f.Write(bytes.Repeat([]byte{0xaa}, 3*vfs.PageSize))
		f.WriteAt([]byte("XYZ"), vfs.PageSize+100)
		m.DropCaches()
		g, _ := m.Open("f")
		buf := make([]byte, 3)
		g.ReadAt(buf, vfs.PageSize+100)
		if string(buf) != "XYZ" {
			t.Fatalf("overwrite lost: %q", buf)
		}
		g.ReadAt(buf, 0)
		if buf[0] != 0xaa {
			t.Fatal("neighboring data damaged")
		}
	})
}

func TestSubPageWrites(t *testing.T) {
	forAll(t, func(t *testing.T, m *vfs.Mount) {
		f, _ := m.Create("f")
		f.Write(bytes.Repeat([]byte{1}, 2*vfs.PageSize))
		m.DropCaches() // force the uncached sub-page write path
		g, _ := m.Open("f")
		g.WriteAt([]byte{9, 9, 9, 9}, 100)
		g.Fsync()
		m.DropCaches()
		h, _ := m.Open("f")
		buf := make([]byte, 8)
		h.ReadAt(buf, 98)
		want := []byte{1, 1, 9, 9, 9, 9, 1, 1}
		if !bytes.Equal(buf, want) {
			t.Fatalf("sub-page write: %v want %v", buf, want)
		}
	})
}

func TestRenameFileKeepsData(t *testing.T) {
	forAll(t, func(t *testing.T, m *vfs.Mount) {
		m.MkdirAll("src")
		m.MkdirAll("dst")
		f, _ := m.Create("src/f")
		f.Write(bytes.Repeat([]byte{7}, 2*vfs.PageSize))
		f.Close()
		if err := m.Rename("src/f", "dst/g"); err != nil {
			t.Fatal(err)
		}
		m.DropCaches()
		g, err := m.Open("dst/g")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2*vfs.PageSize)
		n, _ := g.ReadAt(buf, 0)
		if n != len(buf) || buf[0] != 7 || buf[len(buf)-1] != 7 {
			t.Fatal("rename lost data")
		}
		if _, err := m.Stat("src/f"); err != vfs.ErrNotExist {
			t.Fatal("old name still present")
		}
	})
}

// TestRenameBigFileKeepsData renames a file 8× the node cache and 8× the
// log region on a 1/512 machine, then overwrites it. Every block must read
// back after a sync and a cache drop, both times. On BetrFS the rename
// re-puts every block under the new name, which grows the data tree until
// its interior nodes alone outgrow the node cache and the root splits.
func TestRenameBigFileKeepsData(t *testing.T) {
	const blocks = 8192
	const chunk = 64 // blocks per call
	block := func(i, gen int) []byte {
		b := make([]byte, vfs.PageSize)
		for j := range b {
			b[j] = byte(i*131 + gen*7 + j)
		}
		binary.BigEndian.PutUint64(b, uint64(i+1))
		b[8] = byte(gen)
		return b
	}
	write := func(t *testing.T, f *vfs.File, gen int) {
		for i := 0; i < blocks; i += chunk {
			var buf []byte
			for j := i; j < i+chunk; j++ {
				buf = append(buf, block(j, gen)...)
			}
			if _, err := f.WriteAt(buf, int64(i)*vfs.PageSize); err != nil {
				t.Fatalf("write block %d: %v", i, err)
			}
		}
	}
	verify := func(t *testing.T, m *vfs.Mount, path string, gen int) {
		f, err := m.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		bad, first := 0, -1
		buf := make([]byte, chunk*vfs.PageSize)
		for i := 0; i < blocks; i += chunk {
			if n, err := f.ReadAt(buf, int64(i)*vfs.PageSize); err != nil || n != len(buf) {
				t.Fatalf("read block %d: n=%d err=%v", i, n, err)
			}
			for j := 0; j < chunk; j++ {
				if !bytes.Equal(buf[j*vfs.PageSize:(j+1)*vfs.PageSize], block(i+j, gen)) {
					if bad++; first < 0 {
						first = i + j
					}
				}
			}
		}
		if bad > 0 {
			t.Fatalf("%s: %d of %d blocks wrong, the first at block %d", path, bad, blocks, first)
		}
	}
	for _, name := range systems.Table1 {
		t.Run(name, func(t *testing.T) {
			_, m := buildSized(t, name, 512, systems.Sizes{NodeCache: 4 << 20, PageCache: 4 << 20})
			for _, d := range []string{"src", "dst"} {
				if err := m.MkdirAll(d); err != nil {
					t.Fatal(err)
				}
			}
			f, err := m.Create("src/big")
			if err != nil {
				t.Fatal(err)
			}
			write(t, f, 1)
			f.Close()
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := m.Rename("src/big", "dst/big"); err != nil {
				t.Fatal(err)
			}
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			m.DropCaches()
			verify(t, m, "dst/big", 1)

			g, err := m.Open("dst/big")
			if err != nil {
				t.Fatal(err)
			}
			write(t, g, 2)
			g.Close()
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			m.DropCaches()
			verify(t, m, "dst/big", 2)
		})
	}
}

func TestRenameDirectoryMovesSubtree(t *testing.T) {
	forAll(t, func(t *testing.T, m *vfs.Mount) {
		m.MkdirAll("old/sub")
		f, _ := m.Create("old/sub/file")
		f.Write([]byte("deep"))
		f.Close()
		if err := m.Rename("old", "new"); err != nil {
			t.Fatal(err)
		}
		m.DropCaches()
		g, err := m.Open("new/sub/file")
		if err != nil {
			t.Fatalf("moved file missing: %v", err)
		}
		buf := make([]byte, 4)
		g.ReadAt(buf, 0)
		if string(buf) != "deep" {
			t.Fatal("directory rename lost data")
		}
	})
}

func TestRemoveAllDeletesEverything(t *testing.T) {
	forAll(t, func(t *testing.T, m *vfs.Mount) {
		for d := 0; d < 3; d++ {
			m.MkdirAll(fmt.Sprintf("top/d%d", d))
			for i := 0; i < 10; i++ {
				f, _ := m.Create(fmt.Sprintf("top/d%d/f%d", d, i))
				f.Write([]byte("data"))
				f.Close()
			}
		}
		if err := m.RemoveAll("top"); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Stat("top"); err != vfs.ErrNotExist {
			t.Fatalf("tree still present: %v", err)
		}
		// Recreate to confirm namespace is clean.
		if err := m.MkdirAll("top/d0"); err != nil {
			t.Fatal(err)
		}
		ents, _ := m.ReadDir("top/d0")
		if len(ents) != 0 {
			t.Fatalf("stale entries after rm -rf: %v", ents)
		}
	})
}

func TestManySmallFiles(t *testing.T) {
	forAll(t, func(t *testing.T, m *vfs.Mount) {
		m.MkdirAll("spool")
		const n = 300
		for i := 0; i < n; i++ {
			f, err := m.Create(fmt.Sprintf("spool/msg%04d", i))
			if err != nil {
				t.Fatal(err)
			}
			f.Write(bytes.Repeat([]byte{byte(i)}, 200))
			f.Close()
		}
		m.DropCaches()
		ents, _ := m.ReadDir("spool")
		if len(ents) != n {
			t.Fatalf("readdir found %d files, want %d", len(ents), n)
		}
		g, err := m.Open("spool/msg0123")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 200)
		k, _ := g.ReadAt(buf, 0)
		if k != 200 || buf[0] != 123 {
			t.Fatal("small file content wrong after cache drop")
		}
	})
}

func TestFsyncDurableAfterCrashBetrFS(t *testing.T) {
	// Crash-recovery end-to-end through the VFS for BetrFS v0.6.
	sys, err := systems.Lookup("betrfs-v0.6")
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv(7)
	dev := blockdev.New(env, sys.Device().Scale(64))
	dev.EnableCrashTracking()
	st, err := sys.New(env, dev, systems.Sizes{})
	if err != nil {
		t.Fatal(err)
	}
	m := st.Mount
	m.MkdirAll("mail")
	f, _ := m.Create("mail/msg1")
	f.Write([]byte("important"))
	f.Fsync()
	g, _ := m.Create("mail/volatile")
	g.Write([]byte("lost"))
	// no fsync
	dev.Crash(0)

	st2, err := sys.Recover(env, dev, systems.Sizes{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	m2 := st2.Mount
	h, err := m2.Open("mail/msg1")
	if err != nil {
		t.Fatalf("fsynced file lost: %v", err)
	}
	buf := make([]byte, 16)
	n, _ := h.ReadAt(buf, 0)
	if string(buf[:n]) != "important" {
		t.Fatalf("fsynced data corrupted: %q", buf[:n])
	}
}

func TestBlindWriteOnlyOnBetrFS(t *testing.T) {
	env, m := build(t, "betrfs-v0.6")
	f, _ := m.Create("f")
	f.Write(bytes.Repeat([]byte{1}, 4*vfs.PageSize))
	m.DropCaches()
	g, _ := m.Open("f")
	before := metricstest.Counter(t, env.Metrics, "vfs.write.blind")
	g.WriteAt([]byte{5}, 100) // sub-page, uncached
	if metricstest.Counter(t, env.Metrics, "vfs.write.blind") != before+1 {
		t.Fatal("BetrFS sub-page write did not use the blind path")
	}

	env2, m2 := build(t, "ext4")
	f2, _ := m2.Create("f")
	f2.Write(bytes.Repeat([]byte{1}, 4*vfs.PageSize))
	m2.DropCaches()
	g2, _ := m2.Open("f")
	before2 := metricstest.Counter(t, env2.Metrics, "vfs.write.rmw")
	g2.WriteAt([]byte{5}, 100)
	if metricstest.Counter(t, env2.Metrics, "vfs.write.rmw") != before2+1 {
		t.Fatal("ext4 sub-page write did not read-modify-write")
	}
}

func TestReaddirInstantiationOnlyBetrFSv06(t *testing.T) {
	env, m := build(t, "betrfs-v0.6")
	m.MkdirAll("d")
	for i := 0; i < 20; i++ {
		f, _ := m.Create(fmt.Sprintf("d/f%02d", i))
		f.Close()
	}
	m.DropCaches()
	m.ReadDir("d")
	before := metricstest.Counter(t, env.Metrics, "vfs.lookup.fs")
	for i := 0; i < 20; i++ {
		if _, err := m.Stat(fmt.Sprintf("d/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := metricstest.Counter(t, env.Metrics, "vfs.lookup.fs"); n != before {
		t.Fatalf("DC: lookups after readdir should all hit the dcache, %d FS lookups", n-before)
	}
}

func TestRootReaddir(t *testing.T) {
	forAll(t, func(t *testing.T, m *vfs.Mount) {
		m.MkdirAll("top1")
		f, _ := m.Create("file1")
		f.Close()
		m.DropCaches()
		ents, err := m.ReadDir("")
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 2 {
			t.Fatalf("root readdir found %d entries, want 2", len(ents))
		}
	})
}
