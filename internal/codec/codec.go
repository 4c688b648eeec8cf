// Package codec is the one big-endian record format shared by the redo
// logs, the metadata blobs, the Bε-tree node image and the wire protocol:
// an append-only Encoder, and a cursor Decoder whose first out-of-bounds
// read latches an error, so a decode path reads every field and checks
// once at the end.
//
// The Decoder checks every read against the bytes left, with no addition
// that can wrap, so a length field of any width taken from untrusted bytes
// is an error, never a panic or an allocation larger than the input. A
// count that bounds a loop is the caller's to check against Len, since
// reads after a failure are no-ops that still cost a call each. The node
// image's fixed header and directory slots (betree/serialize.go), keys and
// the wal record header keep their own fixed-layout code.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrMalformed is the error a Decoder reports for a read past the end of
// its input, a bool byte other than 0 or 1, or unread trailing bytes.
// Callers wrap it in their own error class.
var ErrMalformed = errors.New("codec: malformed record")

// Encoder appends fields to Buf. Its methods store Buf through a pointer,
// so the compiler always moves Buf's array to the heap.
type Encoder struct {
	Buf []byte
}

func (e *Encoder) U8(v uint8)   { e.Buf = append(e.Buf, v) }
func (e *Encoder) U16(v uint16) { e.Buf = binary.BigEndian.AppendUint16(e.Buf, v) }
func (e *Encoder) U32(v uint32) { e.Buf = binary.BigEndian.AppendUint32(e.Buf, v) }
func (e *Encoder) U64(v uint64) { e.Buf = binary.BigEndian.AppendUint64(e.Buf, v) }
func (e *Encoder) I64(v int64)  { e.Buf = binary.BigEndian.AppendUint64(e.Buf, uint64(v)) }

// Bool appends 1 for true and 0 for false.
func (e *Encoder) Bool(v bool) {
	b := uint8(0)
	if v {
		b = 1
	}
	e.U8(b)
}

// Bytes appends b as is; a length prefix, if the format has one, is the
// caller's.
func (e *Encoder) Bytes(b []byte) { e.Buf = append(e.Buf, b...) }

// String appends s as is.
func (e *Encoder) String(s string) { e.Buf = append(e.Buf, s...) }

// Decoder reads fields from a byte slice. After the first failed read
// every read returns zero values and Err reports the failure.
type Decoder struct {
	buf []byte
	off int
	err error
	// short is the length of the Take that failed while err is
	// errShort, until Err formats the failure.
	short int
}

// errShort marks a failed Take until Err or Done formats it: a Take that
// calls out of line to build its error is too costly to inline, and U8
// through U64 inline only when Take does.
var errShort = errors.New("codec: short read")

// NewDecoder returns a Decoder positioned at the start of b.
func NewDecoder(b []byte) Decoder { return Decoder{buf: b} }

func (d *Decoder) fail(format string, arg int) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format+" at offset %d of %d", ErrMalformed, arg, d.off, len(d.buf))
	}
}

// Take returns the next n bytes, aliasing the input. A negative n or one
// past the end fails the decoder and returns nil.
func (d *Decoder) Take(n int) []byte {
	// As unsigned, a negative n is past the end too.
	if d.err != nil || uint(n) > uint(len(d.buf)-d.off) {
		if d.err == nil {
			d.err, d.short = errShort, n
		}
		return nil
	}
	b := d.buf[d.off:][:n:n]
	d.off += n
	return b
}

func (d *Decoder) U8() uint8 {
	if b := d.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Decoder) U16() uint16 {
	if b := d.Take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (d *Decoder) U32() uint32 {
	if b := d.Take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (d *Decoder) U64() uint64 {
	if b := d.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads one byte, which must be 0 or 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.fail("bool byte %d", int(v))
	}
	return v == 1
}

// Len returns the number of bytes not yet read.
func (d *Decoder) Len() int { return len(d.buf) - d.off }

// Err returns the first failure, or nil.
func (d *Decoder) Err() error {
	if d.err == errShort {
		d.err = nil
		d.fail("field of %d bytes", d.short)
	}
	return d.err
}

// Done returns the first failure, or an error if any input is left unread:
// a record is consumed exactly.
func (d *Decoder) Done() error {
	if d.err == nil && d.off != len(d.buf) {
		d.fail("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.Err()
}
