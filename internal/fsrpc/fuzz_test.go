package fsrpc

import (
	"bytes"
	"errors"
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

// FuzzDecodeRequest feeds arbitrary payloads to DecodeRequest. Every
// payload must give an error wrapping ErrProto, or a request that encodes
// back to the same bytes, and decoding may allocate only what the
// payload's own length justifies, whatever its length fields claim. The
// seed corpus in testdata/fuzz holds requests of every field kind, a
// truncated WRITE, one with a trailing byte, one whose data length is
// 2^32-1, and an unknown op.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var q *Request
		var err error
		justified := uint64(4*len(payload) + 4<<10)
		if n := allocated(justified, func() { q, err = DecodeRequest(payload) }); n > justified {
			t.Fatalf("decoding %d bytes allocated %d", len(payload), n)
		}
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
// The seed corpus holds replies of every field kind, an error reply, a
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
