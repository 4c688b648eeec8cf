package fsrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"betrfs/internal/ioerr"
	"betrfs/internal/vfs"
)

// TestRequestRoundTrip encodes and re-decodes every op's request shape.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Op: OpLookup, Path: "a/b", Flags: LookupOpen},
		{Op: OpGetattr, Path: "a"},
		{Op: OpRead, Handle: 7, Off: 4096, N: 512},
		{Op: OpWrite, Handle: 7, Off: 8192, Data: []byte("payload")},
		{Op: OpCreate, Path: "dir/file"},
		{Op: OpMkdir, Path: "dir"},
		{Op: OpUnlink, Path: "dir/file"},
		{Op: OpRmdir, Path: "dir"},
		{Op: OpRename, Path: "old", Path2: "new"},
		{Op: OpReaddir, Path: ""},
		{Op: OpFsync, Handle: 9},
		{Op: OpStatfs},
		{Op: OpBopen, Path: "blk0"},
		{Op: OpBread, Handle: 5, Off: 4096, N: 4096},
		{Op: OpBwrite, Handle: 5, Off: 8192, Data: []byte("block")},
		{Op: OpBflush, Handle: 5},
		{Op: OpBdiscard, Handle: 5, Off: 4096, Len: 65536},
		{Op: OpAttach, Path: "fs"},
		{Op: OpShares},
	}
	for _, q := range reqs {
		q.Tag = 31337
		got, err := DecodeRequest(q.Encode())
		if err != nil {
			t.Fatalf("%s: decode: %v", q.Op, err)
		}
		if !reflect.DeepEqual(got, q) {
			t.Fatalf("%s: round trip mismatch:\n got %+v\nwant %+v", q.Op, got, q)
		}
	}
}

// TestReplyRoundTrip does the same for replies, including error replies
// (which must carry no body).
func TestReplyRoundTrip(t *testing.T) {
	attr := Attr{Dir: false, Size: 123, Nlink: 1, Mtime: 4567}
	reps := []*Reply{
		{Op: OpLookup, Status: StatusOK, Handle: 3, Attr: attr},
		{Op: OpGetattr, Status: StatusOK, Attr: attr},
		{Op: OpRead, Status: StatusOK, Data: []byte{1, 2, 3}},
		{Op: OpWrite, Status: StatusOK, N: 3},
		{Op: OpCreate, Status: StatusOK, Handle: 4, Attr: attr},
		{Op: OpMkdir, Status: StatusOK},
		{Op: OpUnlink, Status: StatusOK},
		{Op: OpRmdir, Status: StatusOK},
		{Op: OpRename, Status: StatusOK},
		{Op: OpReaddir, Status: StatusOK, Entries: []DirEnt{{Name: "x", Dir: true}, {Name: "y"}}},
		{Op: OpFsync, Status: StatusOK},
		{Op: OpStatfs, Status: StatusOK, Statfs: Statfs{BlockSize: 4096, SimTimeNs: 99, Degraded: true, Sessions: 2, OpsServed: 10}},
		{Op: OpBopen, Status: StatusOK, Handle: 2, Size: 1 << 30},
		{Op: OpBread, Status: StatusOK, Data: []byte{9, 8, 7}},
		{Op: OpBwrite, Status: StatusOK, N: 4096},
		{Op: OpBflush, Status: StatusOK},
		{Op: OpBdiscard, Status: StatusOK},
		{Op: OpAttach, Status: StatusOK},
		{Op: OpShares, Status: StatusOK, Entries: []DirEnt{{Name: "fs", Dir: true}, {Name: "blk0"}}},
		{Op: OpRead, Status: StatusIO},
		{Op: OpCreate, Status: StatusReadOnly},
		{Op: OpBread, Status: StatusIO},
		{Op: OpBopen, Status: StatusNotExist},
	}
	for _, r := range reps {
		r.Tag = 5
		got, err := DecodeReply(r.Encode())
		if err != nil {
			t.Fatalf("%s/%s: decode: %v", r.Op, r.Status, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("%s/%s: round trip mismatch:\n got %+v\nwant %+v", r.Op, r.Status, got, r)
		}
	}
}

// TestStatusErrRoundTrip checks StatusOf(s.Err()) == s for every code, the
// property that makes wire error classification identical to direct
// vfs.Mount classification.
func TestStatusErrRoundTrip(t *testing.T) {
	for s := StatusOK; s <= StatusNameTooLong; s++ {
		if got := StatusOf(s.Err()); got != s {
			t.Errorf("StatusOf(%s.Err()) = %s, want %s", s, got, s)
		}
	}
}

// TestStatusOfWrappedErrors maps the errors real mount paths return:
// wrapped device errors, degraded-mount gates, and the vfs sentinels.
func TestStatusOfWrappedErrors(t *testing.T) {
	cases := []struct {
		err  error
		want Status
	}{
		{nil, StatusOK},
		{vfs.ErrNotExist, StatusNotExist},
		{fmt.Errorf("create: %w", vfs.ErrExist), StatusExist},
		{&ioerr.DeviceError{Op: "write", Off: 4096, Len: 512}, StatusIO},
		{fmt.Errorf("vfs: mount degraded after %v: %w", ioerr.ErrIO, ioerr.ErrReadOnly), StatusReadOnly},
		{fmt.Errorf("alloc: %w", ioerr.ErrNoSpace), StatusNoSpace},
		{ErrBusy, StatusBusy},
		{ErrShutdown, StatusShutdown},
		{errors.New("anything else"), StatusInval},
	}
	for _, c := range cases {
		if got := StatusOf(c.err); got != c.want {
			t.Errorf("StatusOf(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

// TestFrameLimits rejects oversized frames on both sides.
func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); !errors.Is(err, ErrProto) {
		t.Fatalf("oversized WriteFrame = %v, want EPROTO", err)
	}
	// A hostile length prefix must not allocate or block.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := NewFrameReader(&buf).Next(); !errors.Is(err, ErrProto) {
		t.Fatalf("hostile length prefix = %v, want EPROTO", err)
	}
}

// TestDecodeRejectsGarbage feeds truncated and trailing-byte payloads.
func TestDecodeRejectsGarbage(t *testing.T) {
	q := &Request{Op: OpWrite, Tag: 1, Handle: 2, Off: 0, Data: []byte("abc")}
	payload := q.Encode()
	for cut := 1; cut < len(payload); cut++ {
		if _, err := DecodeRequest(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	if _, err := DecodeRequest(append(append([]byte{}, payload...), 0)); !errors.Is(err, ErrProto) {
		t.Fatalf("trailing byte = %v, want EPROTO", err)
	}
	if _, err := DecodeRequest([]byte{0x77, 0, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrProto) {
		t.Fatal("unknown op accepted")
	}
	// Length and count fields of 2^32-1, and a directory flag of 2.
	binary.BigEndian.PutUint32(payload[25:], 1<<32-1)
	if _, err := DecodeRequest(payload); !errors.Is(err, ErrProto) {
		t.Fatalf("WRITE data length 2^32-1 = %v, want EPROTO", err)
	}
	rd := (&Reply{Op: OpReaddir, Entries: []DirEnt{{Name: "x"}}}).Encode()
	binary.BigEndian.PutUint32(rd[10:], 1<<32-1)
	if _, err := DecodeReply(rd); !errors.Is(err, ErrProto) {
		t.Fatalf("READDIR count 2^32-1 = %v, want EPROTO", err)
	}
	ga := (&Reply{Op: OpGetattr}).Encode()
	ga[10] = 2
	if _, err := DecodeReply(ga); !errors.Is(err, ErrProto) {
		t.Fatalf("directory flag 2 = %v, want EPROTO", err)
	}
}

// TestFramePartsEncodesInPlace: for every op of the §13.2 table, with
// status OK and with an error status, the frame FrameParts builds is
// len ‖ Encode() byte for byte, whether scratch is too small or large
// enough, and Encode renders a 300-entry listing in one allocation instead
// of growing its buffer by doubling.
func TestFramePartsEncodesInPlace(t *testing.T) {
	entries := make([]DirEnt, 300)
	for i := range entries {
		entries[i] = DirEnt{Name: fmt.Sprintf("entry-%03d", i), Dir: i%3 == 0}
	}
	for _, op := range Ops {
		for _, st := range []Status{StatusOK, StatusIO} {
			r := &Reply{
				Op: op, Tag: 77, Status: st, Handle: 5,
				Attr: Attr{Dir: true, Size: 4096, Nlink: 2, Mtime: 9},
				N:    512, Data: []byte("payload"), Entries: entries,
				Statfs: Statfs{BlockSize: 4096, SimTimeNs: 3, Degraded: true, Sessions: 2, OpsServed: 8},
				Token:  "session-token", Lease: 1e9, Resumed: true, Size: 1 << 20,
			}
			if op == OpReaddir || op == OpShares {
				if n := testing.AllocsPerRun(10, func() { r.Encode() }); n != 1 {
					t.Errorf("%s/%s: Encode makes %v allocations, want 1", op, st, n)
				}
			}
			payload := r.Encode()
			want := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
			want = append(want, payload...)
			for _, scratch := range [][]byte{nil, make([]byte, 0, 1<<14)} {
				segs, _, err := r.FrameParts(scratch)
				if err != nil {
					t.Fatalf("%s/%s: FrameParts: %v", op, st, err)
				}
				var got []byte
				for _, seg := range segs {
					got = append(got, seg...)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%s (scratch cap %d): frame differs from len ‖ Encode()", op, st, cap(scratch))
				}
			}
		}
	}
}
