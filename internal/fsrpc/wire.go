package fsrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"betrfs/internal/codec"
)

// Frame reading buffers. A FrameReader reads the transport through
// frameReadSize bytes of buffer, so a burst of small pipelined frames costs
// one read. Its payload buffer grows only once the bytes read fill it, by
// frameStep or by doubling, whichever is more, and one grown past
// frameKeep is dropped before the next frame rather than kept for the life
// of the connection.
const (
	frameReadSize = 16 << 10
	frameStep     = 64 << 10
	frameKeep     = 2 * MaxData
)

// putLen writes the length prefix of a frame whose payload is n bytes
// into prefix[:4], refusing a payload over MaxFrame.
func putLen(prefix []byte, n int) error {
	if n > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame %d", ErrProto, n, MaxFrame)
	}
	binary.BigEndian.PutUint32(prefix, uint32(n))
	return nil
}

// WriteFrame writes payload to w as one length-prefixed frame, in one
// Write.
func WriteFrame(w io.Writer, payload []byte) error {
	frame := append(make([]byte, 4, 4+len(payload)), payload...)
	if err := putLen(frame, len(payload)); err != nil {
		return err
	}
	_, err := w.Write(frame)
	return err
}

// FrameReader reads length-prefixed frames from one transport through one
// buffered reader and one reusable payload buffer. A payload returned by
// Next is valid until the next call to Next; the decoders copy every field
// they keep, so what they decode outlives it. A transport
// has exactly one FrameReader: a second one would lose the bytes the first
// has buffered.
type FrameReader struct {
	br  *bufio.Reader
	hdr [4]byte
	buf []byte
}

// NewFrameReader returns the frame reader of transport r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, frameReadSize)}
}

// Next reads the next frame's payload. The stream ending between frames is
// io.EOF and inside one io.ErrUnexpectedEOF. An oversized length prefix
// is a protocol error wrapping ErrProto: the stream cannot be
// resynchronized, and the connection should be torn down. The payload
// buffer grows only as payload bytes arrive, so a length prefix alone
// never costs more than frameStep of memory.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: frame length %d exceeds MaxFrame %d", ErrProto, n, MaxFrame)
	}
	if cap(fr.buf) > frameKeep {
		fr.buf = nil
	}
	buf := fr.buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), len(buf)+min(n-len(buf), max(len(buf), frameStep)))
			copy(grown, buf)
			buf, fr.buf = grown, grown
		}
		m, err := io.ReadFull(fr.br, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		} else if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// The payload fields are codec fields; strings carry a 16-bit length and
// byte strings a 32-bit one.

// maxStr is the longest string a 16-bit length holds.
const maxStr = 0xffff

// putStr appends s behind its length, cut to maxStr. A request's strings
// are checked against maxStr before they are encoded (checkSize); a
// reply's are file names, which the mount bounds to NAME_MAX, share names
// and session tokens.
func putStr(e *codec.Encoder, s string) {
	s = s[:min(len(s), maxStr)]
	e.U16(uint16(len(s)))
	e.String(s)
}

func putBytes(e *codec.Encoder, b []byte) {
	e.U32(uint32(len(b)))
	e.Bytes(b)
}

// getStr and getBytes return copies: the payload is the frame reader's
// buffer, overwritten by the next frame.
func getStr(d *codec.Decoder) string { return string(d.Take(int(d.U16()))) }

func getBytes(d *codec.Decoder) []byte { return bytes.Clone(d.Take(int(d.U32()))) }

// done returns the decoder's error, with trailing bytes counted as one,
// as a protocol error.
func done(d *codec.Decoder) error {
	if err := d.Done(); err != nil {
		return fmt.Errorf("%w: %w", ErrProto, err)
	}
	return nil
}
