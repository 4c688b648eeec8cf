package blobfs_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"betrfs/internal/blobfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/cowfs"
	"betrfs/internal/logfs"
	"betrfs/internal/sim"
	"betrfs/internal/systems"
	"betrfs/internal/vfs"
)

// coreOf returns the shared core of a baseline.
func coreOf(t *testing.T, fs vfs.FS) *blobfs.Core {
	switch fs := fs.(type) {
	case *logfs.FS:
		return &fs.Core
	case *cowfs.FS:
		return &fs.Core
	}
	t.Fatalf("%T has no blob core", fs)
	return nil
}

// TestHugeRunDropsInode writes a file on f2fs and btrfs, then rewrites its
// blob on the device with a CRC-valid payload whose single block run is
// 2^40 blocks long. The cold read must fail with an error and recovery
// must drop the inode, both in bounded time.
func TestHugeRunDropsInode(t *testing.T) {
	for _, name := range []string{"f2fs", "btrfs"} {
		t.Run(name, func(t *testing.T) {
			sys, err := systems.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			env := sim.NewEnv(1)
			dev := blockdev.New(env, sys.Device().Scale(256))
			st, err := sys.New(env, dev, systems.Sizes{})
			if err != nil {
				t.Fatal(err)
			}
			m, fs, core := st.Mount, st.FS, coreOf(t, st.FS)
			if err := m.MkdirAll("d"); err != nil {
				t.Fatal(err)
			}
			f, err := m.Create("d/f")
			if err != nil {
				t.Fatal(err)
			}
			f.Write(make([]byte, 3*blobfs.BlockSize))
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			d, _, err := fs.Lookup(blobfs.RootIno, "d")
			if err != nil {
				t.Fatal(err)
			}
			h, _, err := fs.Lookup(d, "f")
			if err != nil {
				t.Fatal(err)
			}
			loc := core.Table[h.(blobfs.Ino)]

			// After the 20-byte header the payload holds flags, size, nlink
			// and mtime, the run count, then each run's logical, physical
			// and count words.
			const runs, count = 20 + 4*8, 20 + 7*8
			blob := make([]byte, loc.Count*blobfs.BlockSize)
			addr := core.BlockAddr(loc.First)
			if err := dev.ReadAt(blob, addr); err != nil {
				t.Fatal(err)
			}
			if n := binary.BigEndian.Uint64(blob[runs:]); n != 1 {
				t.Fatalf("want a blob with one block run, got %d", n)
			}
			binary.BigEndian.PutUint64(blob[count:], 1<<40)
			plen := binary.BigEndian.Uint32(blob[12:])
			binary.BigEndian.PutUint32(blob[16:], crc32.ChecksumIEEE(blob[20:20+plen]))
			if err := dev.WriteAt(blob, addr); err != nil {
				t.Fatal(err)
			}

			start := time.Now()
			fs.DropCaches()
			if _, _, err := fs.Lookup(d, "f"); err == nil || !strings.Contains(err.Error(), "block run") {
				t.Fatalf("cold lookup of a blob with a run of 2^40 blocks: %v, want a block-run error", err)
			}
			rec, err := sys.Recover(env, dev, systems.Sizes{})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := coreOf(t, rec.FS).Table[h.(blobfs.Ino)]; ok {
				t.Error("recovery kept the inode with the damaged blob")
			}
			if _, _, err := rec.FS.Lookup(d, "f"); !errors.Is(err, vfs.ErrNotExist) {
				t.Errorf("lookup after recovery: %v, want ErrNotExist", err)
			}
			if took := time.Since(start); took > 10*time.Second {
				t.Errorf("rejecting the damaged blob took %v", took)
			}
		})
	}
}
