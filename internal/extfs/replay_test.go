package extfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"reflect"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/ioerr"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
	"betrfs/internal/wal"
)

// replayFS formats a 1/2048 SSD holding directory d (inode 2) and file d/f
// (inode 3) with two blocks of data, synced, for records to replay into.
func replayFS(t testing.TB) (*sim.Env, *blockdev.Dev, *FS, *vfs.Mount) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(2048))
	fs := New(env, dev, Ext4Profile())
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

// malformedRecords are CRC-valid journal records no encoder writes: three
// create records cut short inside their first field, each of which once
// panicked the replayer, an attr record giving the root a negative size,
// and a create record whose parent is the file d/f of replayFS.
var malformedRecords = []wal.Record{
	{Type: recCreate, Payload: []byte{0, 1, 0}},
	{Type: recCreate, Payload: []byte{0, 1, 0, 200, 1, 2}},
	{Type: recCreate, Payload: []byte{0, 1, 0, 0, 0, 0}},
	{Type: recAttr, Payload: []byte("\x00\x00\x00\x00\x00\x00\x00\x01\xfc00000000000000000000000")},
	{Type: recCreate, Payload: []byte("\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x01x\x00\x00\x00\x00\x00\x00\x00\t\x00")},
}

// TestRecoverRejectsMalformedRecord appends each malformed record to the
// journal, commits it, and remounts: the mount must fail with an EIO-class
// error.
func TestRecoverRejectsMalformedRecord(t *testing.T) {
	for _, r := range malformedRecords {
		env, dev, fs, _ := replayFS(t)
		if _, err := fs.jnl.log.Append(r.Type, r.Payload); err != nil {
			t.Fatal(err)
		}
		fs.commit()
		if _, err := Recover(env, dev, Ext4Profile()); !errors.Is(err, ioerr.ErrIO) {
			t.Errorf("record %d %q: Recover = %v, want an error wrapping ErrIO", r.Type, r.Payload, err)
		}
	}
}

// TestRecoverReplaysEveryRecordType journals one record of each type with
// the file system's own operations, commits without writing metadata back,
// and remounts: every record must replay to the state the operations left.
func TestRecoverReplaysEveryRecordType(t *testing.T) {
	env, dev, fs, m := replayFS(t)
	f, err := m.OpenFile("d/f", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("tail"), 5*BlockSize); err != nil { // extent add, attr
		t.Fatal(err)
	}
	if err := f.Truncate(BlockSize + 10); err != nil { // truncate, attr
		t.Fatal(err)
	}
	f.Close()
	m.Writeback()
	h, err := m.Create("h") // create
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	for _, step := range []error{
		m.Mkdir("d/e"),           // create
		m.Rename("d/f", "d/e/g"), // rename
		m.Remove("h"),            // remove
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	fs.commit()
	recs, err := wal.Recover(env, blockdev.Region(dev, fs.lay.journalOff, fs.lay.journalLen), fs.jnl.log.Hint())
	if err != nil {
		t.Fatal(err)
	}
	types := map[wal.RecordType]bool{}
	for _, r := range recs {
		types[r.Type] = true
	}
	for typ := recCreate; typ <= recTruncate; typ++ {
		if !types[typ] {
			t.Fatalf("no record of type %d among %d journaled", typ, len(recs))
		}
	}

	fs2, err := Recover(env, dev, Ext4Profile())
	if err != nil {
		t.Fatal(err)
	}
	m2 := vfs.NewMount(env, fs2, vfs.DefaultConfig())
	if a, err := m2.Stat("d/e/g"); err != nil || a.Size != BlockSize+10 || a.Dir {
		t.Fatalf("renamed file: %+v, %v; want a %d-byte file", a, err, BlockSize+10)
	}
	if _, err := m2.Stat("d/f"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("rename source still resolves: %v", err)
	}
	if _, err := m2.Stat("h"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("removed file still resolves: %v", err)
	}
}

// FuzzReplay feeds arbitrary records, a type and a payload, to the journal
// replayer over replayFS. Every record must give an EIO-class error, or
// apply and leave a file system that syncs. The seed corpus in
// testdata/fuzz holds the malformedRecords and one record of each type as
// the file system's own operations journal it.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		_, _, fs, _ := replayFS(t)
		err := fs.replayRecord(wal.Record{LSN: 1, Type: wal.RecordType(typ), Payload: payload})
		if err != nil {
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

// fuzzIno is the inode FuzzReadInode decodes, and fuzzBlock the data block
// its overflow chain may start at.
const (
	fuzzIno   Ino   = 5
	fuzzBlock int64 = 100
)

// placeInode writes inode as inode fuzzIno's slot, zero-padded or cut to
// the slot's size and resealed so that mutations reach the decoder behind
// the CRC, and returns the slot.
func placeInode(t *testing.T, fs *FS, inode []byte) []byte {
	t.Helper()
	slot := make([]byte, inodeSize)
	copy(slot, inode)
	slot = seal(slot[:inodeSize-4], inodeSize)
	table := make([]byte, BlockSize)
	addr := fs.itableBlockAddr(fuzzIno)
	if err := fs.dev.ReadAt(table, addr); err != nil {
		t.Fatal(err)
	}
	copy(table[int64(fuzzIno)%inodesPerBlock*inodeSize:], slot)
	if err := fs.dev.WriteAt(table, addr); err != nil {
		t.Fatal(err)
	}
	return slot
}

// placeBlock writes block as data block fuzzBlock, padded or cut and
// resealed like placeInode's slot.
func placeBlock(t *testing.T, fs *FS, block []byte) {
	t.Helper()
	ob := make([]byte, BlockSize)
	copy(ob, block)
	if err := fs.dev.WriteAt(seal(ob[:BlockSize-4], BlockSize), fs.blockAddr(fuzzBlock)); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadInode feeds an arbitrary inode and overflow block (see
// placeInode) to readInode. Every input must give an error, or an inode
// holding no more extents than it counts, all inside the data area, whose
// encoding reads back the same. The seed corpus in testdata/fuzz holds an inline inode, one whose
// extents continue in the overflow block, and the overflow block that
// names itself as its successor under an inode counting 65 536 extents.
func FuzzReadInode(f *testing.F) {
	f.Fuzz(func(t *testing.T, inode, block []byte) {
		_, _, fs, _ := replayFS(t)
		slot := placeInode(t, fs, inode)
		placeBlock(t, fs, block)
		x, err := fs.readInode(fuzzIno)
		if err != nil {
			return
		}
		if n, count := len(x.extents), binary.BigEndian.Uint32(slot[26:]); uint64(n) > uint64(count) {
			t.Fatalf("decoded %d extents from an inode counting %d", n, count)
		}
		for _, e := range x.extents {
			if e.count <= 0 || e.phys < 0 || e.phys > fs.lay.dataBlocks || e.count > fs.lay.dataBlocks-e.phys {
				t.Fatalf("extent %+v outside a data area of %d blocks", e, fs.lay.dataBlocks)
			}
		}
		placeInode(t, fs, fs.encodeInode(x))
		back, err := fs.readInode(fuzzIno)
		if err != nil {
			t.Fatalf("encoded inode does not read back: %v", err)
		}
		back.overflow, x.overflow = nil, nil
		if !reflect.DeepEqual(back, x) {
			t.Fatalf("round trip changed the inode:\n got  %+v\n want %+v", back, x)
		}
	})
}

// TestReadInodeRejectsOverflowLoop places the self-referencing overflow
// block under an inode counting 65 536 extents: readInode must refuse the
// chain at its second visit, not read the block 65 517 times.
func TestReadInodeRejectsOverflowLoop(t *testing.T) {
	_, dev, fs, _ := replayFS(t)
	x := &xinode{ino: fuzzIno, nlink: 1, size: BlockSize}
	for i := int64(0); i < inlineExtents; i++ {
		x.extents = append(x.extents, extent{logical: i, phys: 200 + i, count: 1})
	}
	inode := fs.encodeInode(x)
	binary.BigEndian.PutUint32(inode[26:], 65536)
	binary.BigEndian.PutUint64(inode[30:], uint64(fuzzBlock))
	placeInode(t, fs, inode)
	placeBlock(t, fs, overflowBlock(fuzzBlock, []extent{{logical: 19, phys: 300, count: 1}}))
	reads := dev.Stats().Reads
	if _, err := fs.readInode(fuzzIno); err == nil {
		t.Fatal("a self-referencing overflow chain decoded")
	}
	if n := dev.Stats().Reads - reads; n > 2 {
		t.Fatalf("readInode issued %d device reads", n)
	}
}

// FuzzDecodeDir feeds arbitrary directory blobs to decodeDir. Every blob
// must give an error, or entries that encode and decode back unchanged.
// The seed corpus in testdata/fuzz holds a three-entry directory, one cut
// short inside an entry, an entry count of 2^32-1 and an empty name.
func FuzzDecodeDir(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got := map[string]dirent{}
		if err := decodeDir(data, got); err != nil {
			return
		}
		back := map[string]dirent{}
		if err := decodeDir(encodeDir(got), back); err != nil {
			t.Fatalf("encoded directory does not decode: %v", err)
		}
		if !maps.Equal(back, got) {
			t.Fatalf("round trip changed the directory:\n got  %v\n want %v", back, got)
		}
	})
}

// FuzzDecodeSuper feeds an arbitrary superblock slot to decodeSuper. No
// input may panic, and one that decodes must encode back to the same
// superblock bytes. The seed corpus in testdata/fuzz holds a valid slot,
// the same slot with a flipped CRC bit, a slot with the wrong magic, and
// a slot cut short of its CRC.
func FuzzDecodeSuper(f *testing.F) {
	f.Fuzz(func(t *testing.T, slot []byte) {
		nextIno, hint, gen, ok := decodeSuper(slot)
		if !ok {
			return
		}
		if back := encodeSuper(nextIno, hint, gen); !bytes.Equal(back[:superLen], slot[:superLen]) {
			t.Fatalf("superblock encodes back as %x, want %x", back[:superLen], slot[:superLen])
		}
	})
}

// TestSuperRoundTrip: a superblock slot decodes to what was encoded, and
// a torn one (bad CRC, wrong magic, cut short) does not decode.
func TestSuperRoundTrip(t *testing.T) {
	hint := wal.Hint{Offset: 1 << 20, LSN: 77, Epoch: 3}
	b := encodeSuper(42, hint, 9)
	if len(b) != superSlotSize {
		t.Fatalf("slot is %d bytes, want %d", len(b), superSlotSize)
	}
	if n, h, g, ok := decodeSuper(b); !ok || n != 42 || h != hint || g != 9 {
		t.Fatalf("decodeSuper = %d, %+v, %d, %v", n, h, g, ok)
	}
	for name, bad := range map[string][]byte{
		"crc":   append(bytes.Clone(b[:superLen-1]), b[superLen-1]^1),
		"magic": append([]byte{0}, b[1:]...),
		"cut":   b[:superLen-1],
	} {
		if _, _, _, ok := decodeSuper(bad); ok {
			t.Errorf("%s: torn superblock decoded", name)
		}
	}
}
