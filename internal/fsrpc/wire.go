package fsrpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"betrfs/internal/codec"
)

// WriteFrame writes one length-prefixed frame to w.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame %d", ErrProto, len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame from r. An oversized length
// prefix is a protocol error (the connection should be torn down — the
// stream cannot be resynchronized).
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame length %d exceeds MaxFrame %d", ErrProto, n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// The payload fields are codec fields; strings carry a 16-bit length and
// byte strings a 32-bit one.

func putStr(e *codec.Encoder, s string) {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	e.U16(uint16(len(s)))
	e.String(s)
}

func putBytes(e *codec.Encoder, b []byte) {
	e.U32(uint32(len(b)))
	e.Bytes(b)
}

func getStr(d *codec.Decoder) string { return string(d.Take(int(d.U16()))) }

// getBytes returns a copy: the payload buffer is not the caller's to keep.
func getBytes(d *codec.Decoder) []byte { return bytes.Clone(d.Take(int(d.U32()))) }

// done returns the decoder's error, with trailing bytes counted as one,
// as a protocol error.
func done(d *codec.Decoder) error {
	if err := d.Done(); err != nil {
		return fmt.Errorf("%w: %w", ErrProto, err)
	}
	return nil
}
