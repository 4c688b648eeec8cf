package cowfs

import (
	"bytes"
	"errors"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/ioerr"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
	"betrfs/internal/wal"
)

// replayFS formats a 1/2048 SSD as ZFS holding directory d (inode 2) and
// file d/f (inode 3) with two blocks of data, committed, for intent-log
// records to replay into.
func replayFS(t testing.TB) (*sim.Env, *blockdev.Dev, *FS, *vfs.Mount) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(2048))
	fs := New(env, dev, ZFSProfile())
	m := vfs.NewMount(env, fs, vfs.DefaultConfig())
	if err := m.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	f, err := m.Create("d/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	return env, dev, fs, m
}

// malformedRecords are CRC-valid intent-log payloads no encoder writes:
// three with an op byte of 0; the same three behind a create's op byte,
// each then cut short inside its first field, which once panicked the
// replayer; and a rename into the file d/f of replayFS.
var malformedRecords = [][]byte{
	{0, 1, 0}, {0, 1, 0, 200, 1, 2}, {0, 1, 0, 0, 0, 0},
	{1, 0, 1, 0}, {1, 0, 1, 0, 200, 1, 2}, {1, 0, 1, 0, 0, 0, 0},
	[]byte("\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x01f\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x020000000000"),
}

// TestRecoverRejectsMalformedRecord appends each malformed payload to the
// intent log, flushes it, and remounts: the mount must fail with an
// EIO-class error.
func TestRecoverRejectsMalformedRecord(t *testing.T) {
	for _, p := range malformedRecords {
		env, dev, fs, _ := replayFS(t)
		if _, err := fs.zil.Append(wal.RecordType(1), p); err != nil {
			t.Fatal(err)
		}
		if err := fs.zil.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(env, dev, ZFSProfile()); !errors.Is(err, ioerr.ErrIO) {
			t.Errorf("payload %v: Recover = %v, want an error wrapping ErrIO", p, err)
		}
	}
}

// TestRecoverReplaysEveryRecordType logs one record of each op with the
// file system's own operations, flushes the intent log without a txg
// commit, and remounts: every record must replay to the state the
// operations left.
func TestRecoverReplaysEveryRecordType(t *testing.T) {
	env, dev, fs, m := replayFS(t)
	g, err := m.Create("d/g") // create
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("synced")); err != nil {
		t.Fatal(err)
	}
	if err := g.Fsync(); err != nil { // write, attr
		t.Fatal(err)
	}
	g.Close()
	for _, step := range []error{
		m.Rename("d/f", "d/f2"), // rename
		m.Remove("d/f2"),        // remove
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	if err := fs.zil.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := wal.Recover(env, blockdev.Region(dev, fs.zilOff, fs.zilLen), wal.Hint{Offset: 0, LSN: 1, Epoch: fs.zil.Epoch()})
	if err != nil {
		t.Fatal(err)
	}
	ops := map[zilOp]bool{}
	for _, r := range recs {
		ops[zilOp(r.Payload[0])] = true
	}
	for op := zilCreate; op <= zilAttr; op++ {
		if !ops[op] {
			t.Fatalf("no record of op %d among %d logged", op, len(recs))
		}
	}

	fs2, err := Recover(env, dev, ZFSProfile())
	if err != nil {
		t.Fatal(err)
	}
	m2 := vfs.NewMount(env, fs2, vfs.DefaultConfig())
	h, err := m2.Open("d/g")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if n, _ := h.ReadAt(buf, 0); !bytes.Equal(buf[:n], []byte("synced")) {
		t.Fatalf("logged file reads %q", buf[:n])
	}
	for _, gone := range []string{"d/f", "d/f2"} {
		if _, err := m2.Stat(gone); !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("%s still resolves: %v", gone, err)
		}
	}
}

// FuzzReplay feeds arbitrary payloads to the intent-log replayer over
// replayFS. Every payload must give an EIO-class error, or apply and leave
// a file system that commits. The seed corpus in testdata/fuzz holds the
// malformedRecords and one record of each op as the file system's own
// operations log it.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, _, fs, _ := replayFS(t)
		if err := fs.replayZil(payload); err != nil {
			if !errors.Is(err, ioerr.ErrIO) {
				t.Fatalf("malformed record failed with %v, want an error wrapping ErrIO", err)
			}
			return
		}
		if err := fs.Sync(); err != nil {
			t.Fatalf("sync after a replayed record: %v", err)
		}
	})
}

// FuzzDecodeUberblock feeds an arbitrary uberblock slot to
// decodeUberblock. No input may panic, and one that decodes must encode
// back to the same uberblock bytes. The seed corpus in testdata/fuzz
// holds a valid slot, the same slot with a flipped CRC bit, a slot with
// the wrong magic, and a slot cut short of its CRC.
func FuzzDecodeUberblock(f *testing.F) {
	f.Fuzz(func(t *testing.T, slot []byte) {
		gen, nextIno, epoch, ok := decodeUberblock(slot)
		if !ok {
			return
		}
		if back := encodeUberblock(gen, nextIno, epoch); !bytes.Equal(back[:uberLen], slot[:uberLen]) {
			t.Fatalf("uberblock encodes back as %x, want %x", back[:uberLen], slot[:uberLen])
		}
	})
}

// TestUberblockRoundTrip: an uberblock slot decodes to what was encoded,
// and a torn one (bad CRC, wrong magic, cut short) does not decode.
func TestUberblockRoundTrip(t *testing.T) {
	b := encodeUberblock(9, 42, 3)
	if len(b) != uberSlotSize {
		t.Fatalf("slot is %d bytes, want %d", len(b), uberSlotSize)
	}
	if g, n, e, ok := decodeUberblock(b); !ok || g != 9 || n != 42 || e != 3 {
		t.Fatalf("decodeUberblock = %d, %d, %d, %v", g, n, e, ok)
	}
	for name, bad := range map[string][]byte{
		"crc":   append(bytes.Clone(b[:uberLen-1]), b[uberLen-1]^1),
		"magic": append([]byte{0}, b[1:]...),
		"cut":   b[:uberLen-1],
	} {
		if _, _, _, ok := decodeUberblock(bad); ok {
			t.Errorf("%s: torn uberblock decoded", name)
		}
	}
}
