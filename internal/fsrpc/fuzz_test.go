package fsrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// allocated returns the bytes of heap decode allocates. The fuzzing
// engine's own goroutines may allocate between the two readings, so a
// reading over limit is taken again, up to three times: a decoder that
// over-allocates does so every time.
func allocated(limit uint64, decode func()) uint64 {
	var got uint64
	for try := 0; try < 4; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		if got = after.TotalAlloc - before.TotalAlloc; got <= limit {
			break
		}
	}
	return got
}

// usedRequest and usedReply are destinations that last held another
// frame, with every field set, for the decode-into property: decoding a
// payload into one must give what decoding it into a zero value gives, and
// keep none of its slices.
func usedRequest() *Request {
	return &Request{Op: OpRename, Tag: 9, Seq: 8, Path: "old", Path2: "new", Handle: 7,
		Off: 6, N: 5, Data: []byte("data"), Flags: 1, Token: "token", Len: 4}
}

func usedReply() *Reply {
	return &Reply{Op: OpReaddir, Tag: 9, Status: StatusIO, Handle: 8, Attr: Attr{Dir: true, Size: 7, Nlink: 6, Mtime: 5},
		N: 4, Data: []byte("data"), Entries: []DirEnt{{Name: "e", Dir: true}}, Statfs: Statfs{BlockSize: 3, Sessions: 2},
		Token: "token", Lease: 1, Resumed: true, Size: 1}
}

// sameDecode checks the decode-into property for one payload: dst, a
// destination that held another frame, decodes it exactly as zero did.
// kept names a slice dst still shares with the frame it held, if any.
func sameDecode[T any](t *testing.T, zero, dst *T, zeroErr, dstErr error, kept string) {
	t.Helper()
	if (zeroErr == nil) != (dstErr == nil) || zeroErr != nil && zeroErr.Error() != dstErr.Error() {
		t.Fatalf("decoding into a used destination: %v; into a zero one: %v", dstErr, zeroErr)
	}
	if zeroErr == nil && !reflect.DeepEqual(zero, dst) {
		t.Fatalf("decoding into a used destination gives %+v; into a zero one %+v", dst, zero)
	}
	if kept != "" {
		t.Fatalf("the decoded message shares its destination's old %s", kept)
	}
}

// sameArray reports whether a and b are non-empty and start at the same
// element.
func sameArray[E any](a, b []E) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// FuzzDecodeRequest feeds arbitrary payloads to DecodeRequest. Every
// payload must give an error wrapping ErrProto, or a request that encodes
// back to the same bytes, and decoding may allocate only what the
// payload's own length justifies, whatever its length fields claim.
// Decoding into a Request that held another frame gives the same result
// as decoding into a zero one. The seed corpus in testdata/fuzz holds
// requests of every field kind, a truncated WRITE, one with a trailing
// byte, one whose data length is 2^32-1, and an unknown op.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var q *Request
		var err error
		justified := uint64(4*len(payload) + 4<<10)
		if n := allocated(justified, func() { q, err = DecodeRequest(payload) }); n > justified {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), n)
		}
		used := usedRequest()
		old := used.Data
		usedErr := used.Decode(payload)
		kept := ""
		if sameArray(old, used.Data) {
			kept = "Data"
		}
		sameDecode(t, q, used, err, usedErr, kept)
		if err != nil {
			if !errors.Is(err, ErrProto) {
				t.Fatalf("decode error %v does not wrap ErrProto", err)
			}
			return
		}
		if back := q.Encode(); !bytes.Equal(back, payload) {
			t.Fatalf("%v request encodes back as %q, want %q", q.Op, back, payload)
		}
	})
}

// FuzzDecodeReply is FuzzDecodeRequest for DecodeReply. A listing may
// allocate a slice entry per 3-byte entry, so the allowance is larger.
// The seed corpus holds replies of every field kind, an error reply,
// READDIRs with no entries, with an empty name and with a 255-byte name, a
// READDIR whose entry count is 2^32-1, an attribute whose directory flag
// is 2, and a payload without the reply bit.
func FuzzDecodeReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var r *Reply
		var err error
		justified := uint64(32*len(payload) + 4<<10)
		if n := allocated(justified, func() { r, err = DecodeReply(payload) }); n > justified {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), n)
		}
		used := usedReply()
		oldData, oldEnts := used.Data, used.Entries
		usedErr := used.Decode(payload)
		kept := ""
		if sameArray(oldData, used.Data) {
			kept = "Data"
		} else if sameArray(oldEnts, used.Entries) {
			kept = "Entries"
		}
		sameDecode(t, r, used, err, usedErr, kept)
		if err != nil {
			if !errors.Is(err, ErrProto) {
				t.Fatalf("decode error %v does not wrap ErrProto", err)
			}
			return
		}
		if back := r.Encode(); !bytes.Equal(back, payload) {
			t.Fatalf("%v reply encodes back as %q, want %q", r.Op, back, payload)
		}
	})
}

// FuzzFrameReader feeds an arbitrary byte stream to a FrameReader. The
// frames it yields must be exactly the stream's frames, in order, and the
// stream must end in io.EOF at a frame boundary or in an error wrapping
// ErrProto (an oversized length prefix) or io.ErrUnexpectedEOF (a cut
// frame). Allocation stays within a constant of the stream's length
// whatever its length prefixes claim: the payload buffer grows only as
// payload bytes arrive. The seed corpus holds whole frames, an empty
// frame, a cut header, a cut payload, a prefix one past MaxFrame and a
// bare prefix claiming MaxFrame.
func FuzzFrameReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		justified := uint64(8*len(stream) + frameReadSize + frameStep + 16<<10)
		var (
			off, frames int
			mismatch    bool
			err         error
		)
		read := func() {
			off, frames, mismatch = 0, 0, false
			fr := NewFrameReader(bytes.NewReader(stream))
			for {
				var p []byte
				if p, err = fr.Next(); err != nil {
					return
				}
				// A payload is valid until the next Next: check it now.
				n := int(binary.BigEndian.Uint32(stream[off:]))
				if len(p) != n || !bytes.Equal(p, stream[off+4:off+4+n]) {
					mismatch = true
					return
				}
				off += 4 + n
				frames++
			}
		}
		if n := allocated(justified, read); n > justified {
			t.Fatalf("reading %d bytes allocated %d", len(stream), n)
		}
		if mismatch {
			t.Fatalf("frame %d at byte %d differs from the stream's bytes", frames, off)
		}
		if err != io.EOF && !errors.Is(err, ErrProto) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream ended in %v, want io.EOF, ErrProto or io.ErrUnexpectedEOF", err)
		}
		if err == io.EOF && off != len(stream) {
			t.Fatalf("clean end after %d of %d bytes", off, len(stream))
		}
	})
}
