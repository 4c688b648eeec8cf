package fsrpc

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"betrfs/internal/vfs"
)

// Attr is the wire form of vfs.Attr.
type Attr struct {
	Dir   bool
	Size  int64
	Nlink int
	Mtime time.Duration
}

// FromVFS converts a vfs.Attr to its wire form.
func FromVFS(a vfs.Attr) Attr {
	return Attr{Dir: a.Dir, Size: a.Size, Nlink: a.Nlink, Mtime: a.Mtime}
}

// DirEnt is one READDIR reply entry.
type DirEnt struct {
	Name string
	Dir  bool
}

// Statfs is the STATFS reply: service-level file-system information.
type Statfs struct {
	BlockSize int64
	SimTimeNs int64 // the serving machine's simulated clock
	Degraded  bool  // mount has degraded read-only (errors=remount-ro)
	Sessions  int64 // live sessions on the server
	OpsServed int64 // requests executed since the server started
}

// LookupOpen is the Request.Flags bit asking LOOKUP to also open a file
// handle when the target is a regular file.
const LookupOpen = 1

// Request is one decoded client request. A single struct covers every op;
// Encode writes only the fields the op defines and Decode reads exactly
// those, so unused fields are never on the wire.
//
// Field usage by op:
//
//	LOOKUP   Path, Flags      → Handle (if opened), Attr
//	GETATTR  Path             → Attr
//	READ     Handle, Off, N   → Data
//	WRITE    Handle, Off, Data→ N
//	CREATE   Path             → Handle, Attr
//	MKDIR    Path             → –
//	UNLINK   Path             → –
//	RMDIR    Path             → –
//	RENAME   Path, Path2      → –
//	READDIR  Path             → Entries
//	FSYNC    Handle           → –
//	STATFS   –                → Statfs
//	HELLO    Token            → Token, Lease, Resumed
//	PING     –                → –
//	BOPEN    Path (store name)→ Handle, Size
//	BREAD    Handle, Off, N   → Data
//	BWRITE   Handle, Off, Data→ N
//	BFLUSH   Handle           → –
//	BDISCARD Handle, Off, Len → –
//	ATTACH   Path (share name)→ –
//	SHARES   –                → Entries
//
// Mutating requests (Op.Mutating) additionally carry Seq, the per-session
// monotonic sequence number the server's duplicate-reply cache keys on;
// Seq 0 marks an unsequenced (sessionless) request that is executed
// without duplicate detection (DESIGN.md §13.9). The block class (§14)
// never carries Seq — its writes are idempotent at absolute offsets.
type Request struct {
	Op     Op
	Tag    uint64
	Seq    uint64
	Path   string
	Path2  string
	Handle uint64
	Off    int64
	N      uint32
	Data   []byte
	Flags  uint8
	Token  string
	Len    int64 // BDISCARD: byte length of the discarded range
}

// Encode renders the request payload.
func (q *Request) Encode() []byte {
	e := &enc{buf: make([]byte, 0, 16+len(q.Path)+len(q.Path2)+len(q.Data))}
	e.u8(uint8(q.Op))
	e.u64(q.Tag)
	switch q.Op {
	case OpLookup:
		e.str(q.Path)
		e.u8(q.Flags)
	case OpGetattr, OpReaddir:
		e.str(q.Path)
	case OpMkdir, OpUnlink, OpRmdir, OpCreate:
		e.str(q.Path)
		e.u64(q.Seq)
	case OpRename:
		e.str(q.Path)
		e.str(q.Path2)
		e.u64(q.Seq)
	case OpRead:
		e.u64(q.Handle)
		e.i64(q.Off)
		e.u32(q.N)
	case OpWrite:
		e.u64(q.Handle)
		e.i64(q.Off)
		e.bytes(q.Data)
		e.u64(q.Seq)
	case OpFsync:
		e.u64(q.Handle)
	case OpStatfs, OpPing, OpShares:
	case OpHello:
		e.str(q.Token)
	case OpBopen, OpAttach:
		e.str(q.Path)
	case OpBread:
		e.u64(q.Handle)
		e.i64(q.Off)
		e.u32(q.N)
	case OpBwrite:
		e.u64(q.Handle)
		e.i64(q.Off)
		e.bytes(q.Data)
	case OpBflush:
		e.u64(q.Handle)
	case OpBdiscard:
		e.u64(q.Handle)
		e.i64(q.Off)
		e.i64(q.Len)
	}
	return e.buf
}

// DecodeRequest parses a request payload.
func DecodeRequest(payload []byte) (*Request, error) {
	d := &dec{buf: payload}
	q := &Request{Op: Op(d.u8()), Tag: d.u64()}
	switch q.Op {
	case OpLookup:
		q.Path = d.str()
		q.Flags = d.u8()
	case OpGetattr, OpReaddir:
		q.Path = d.str()
	case OpMkdir, OpUnlink, OpRmdir, OpCreate:
		q.Path = d.str()
		q.Seq = d.u64()
	case OpRename:
		q.Path = d.str()
		q.Path2 = d.str()
		q.Seq = d.u64()
	case OpRead:
		q.Handle = d.u64()
		q.Off = d.i64()
		q.N = d.u32()
		if q.N > MaxData {
			return nil, fmt.Errorf("%w: READ of %d bytes exceeds MaxData %d", ErrProto, q.N, MaxData)
		}
	case OpWrite:
		q.Handle = d.u64()
		q.Off = d.i64()
		q.Data = d.bytes()
		if len(q.Data) > MaxData {
			return nil, fmt.Errorf("%w: WRITE of %d bytes exceeds MaxData %d", ErrProto, len(q.Data), MaxData)
		}
		q.Seq = d.u64()
	case OpFsync:
		q.Handle = d.u64()
	case OpStatfs, OpPing, OpShares:
	case OpHello:
		q.Token = d.str()
	case OpBopen, OpAttach:
		q.Path = d.str()
	case OpBread:
		q.Handle = d.u64()
		q.Off = d.i64()
		q.N = d.u32()
		if q.N > MaxData {
			return nil, fmt.Errorf("%w: BREAD of %d bytes exceeds MaxData %d", ErrProto, q.N, MaxData)
		}
	case OpBwrite:
		q.Handle = d.u64()
		q.Off = d.i64()
		q.Data = d.bytes()
		if len(q.Data) > MaxData {
			return nil, fmt.Errorf("%w: BWRITE of %d bytes exceeds MaxData %d", ErrProto, len(q.Data), MaxData)
		}
	case OpBflush:
		q.Handle = d.u64()
	case OpBdiscard:
		q.Handle = d.u64()
		q.Off = d.i64()
		q.Len = d.i64()
	default:
		return nil, fmt.Errorf("%w: unknown op %d", ErrProto, uint8(q.Op))
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return q, nil
}

// Reply is one decoded server reply. Body fields are meaningful only when
// Status == StatusOK.
type Reply struct {
	Op      Op
	Tag     uint64
	Status  Status
	Handle  uint64
	Attr    Attr
	N       uint32
	Data    []byte
	Entries []DirEnt
	Statfs  Statfs
	Token   string // HELLO: server-issued session token
	Lease   int64  // HELLO: session lease in nanoseconds (0 = no expiry)
	Resumed bool   // HELLO: an existing session was resumed
	Size    int64  // BOPEN: capacity of the opened block share in bytes
}

func (e *enc) attr(a Attr) {
	e.bool(a.Dir)
	e.i64(a.Size)
	e.u32(uint32(a.Nlink))
	e.i64(int64(a.Mtime))
}

func (d *dec) attr() Attr {
	return Attr{Dir: d.bool(), Size: d.i64(), Nlink: int(d.u32()), Mtime: time.Duration(d.i64())}
}

// Encode renders the reply payload.
func (r *Reply) Encode() []byte {
	return r.appendPayload(make([]byte, 0, r.sizeHint()))
}

// sizeHint is a payload capacity that holds the data and every entry, so
// that a long listing is encoded without regrowing its buffer.
func (r *Reply) sizeHint() int {
	n := 16 + len(r.Data)
	for _, ent := range r.Entries {
		n += 3 + len(ent.Name)
	}
	return n
}

// appendPayload appends the reply payload to buf.
func (r *Reply) appendPayload(buf []byte) []byte {
	e := &enc{buf: buf}
	e.u8(uint8(r.Op) | replyBit)
	e.u64(r.Tag)
	e.u8(uint8(r.Status))
	if r.Status != StatusOK {
		return e.buf
	}
	switch r.Op {
	case OpLookup, OpCreate:
		e.u64(r.Handle)
		e.attr(r.Attr)
	case OpGetattr:
		e.attr(r.Attr)
	case OpRead:
		e.bytes(r.Data)
	case OpWrite:
		e.u32(r.N)
	case OpReaddir:
		e.u32(uint32(len(r.Entries)))
		for _, ent := range r.Entries {
			e.str(ent.Name)
			e.bool(ent.Dir)
		}
	case OpStatfs:
		e.i64(r.Statfs.BlockSize)
		e.i64(r.Statfs.SimTimeNs)
		e.bool(r.Statfs.Degraded)
		e.i64(r.Statfs.Sessions)
		e.i64(r.Statfs.OpsServed)
	case OpHello:
		e.str(r.Token)
		e.i64(r.Lease)
		e.bool(r.Resumed)
	case OpBopen:
		e.u64(r.Handle)
		e.i64(r.Size)
	case OpBread:
		e.bytes(r.Data)
	case OpBwrite:
		e.u32(r.N)
	case OpShares:
		e.u32(uint32(len(r.Entries)))
		for _, ent := range r.Entries {
			e.str(ent.Name)
			e.bool(ent.Dir)
		}
	case OpMkdir, OpUnlink, OpRmdir, OpRename, OpFsync, OpPing, OpBflush, OpBdiscard, OpAttach:
	}
	return e.buf
}

// FrameParts renders the reply as a complete wire frame (length prefix
// included) split into scatter-gather segments, byte-identical to
// WriteFrame(w, r.Encode()). For a successful READ or BREAD the data
// bytes are referenced, not copied: the first segment is the 18-byte
// header built in scratch (reused when its capacity suffices) and the
// second is r.Data itself, so a read payload travels device buffer →
// socket with no intermediate copy. zerocopy reports how many payload
// bytes were passed by reference. Every other reply encodes straight into
// scratch behind the length prefix, as a single segment.
func (r *Reply) FrameParts(scratch []byte) (segs [][]byte, zerocopy int, err error) {
	if (r.Op == OpRead || r.Op == OpBread) && r.Status == StatusOK {
		e := &enc{buf: append(scratch[:0], 0, 0, 0, 0)}
		e.u8(uint8(r.Op) | replyBit)
		e.u64(r.Tag)
		e.u8(uint8(r.Status))
		e.u32(uint32(len(r.Data)))
		payloadLen := len(e.buf) - 4 + len(r.Data)
		if payloadLen > MaxFrame {
			return nil, 0, fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame %d", ErrProto, payloadLen, MaxFrame)
		}
		binary.BigEndian.PutUint32(e.buf[:4], uint32(payloadLen))
		return [][]byte{e.buf, r.Data}, len(r.Data), nil
	}
	buf := r.appendPayload(append(slices.Grow(scratch[:0], 4+r.sizeHint()), 0, 0, 0, 0))
	n := len(buf) - 4
	if n > MaxFrame {
		return nil, 0, fmt.Errorf("%w: frame of %d bytes exceeds MaxFrame %d", ErrProto, n, MaxFrame)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	return [][]byte{buf}, 0, nil
}

// DecodeReply parses a reply payload.
func DecodeReply(payload []byte) (*Reply, error) {
	d := &dec{buf: payload}
	opByte := d.u8()
	if opByte&replyBit == 0 {
		return nil, fmt.Errorf("%w: reply bit missing", ErrProto)
	}
	r := &Reply{Op: Op(opByte &^ replyBit), Tag: d.u64(), Status: Status(d.u8())}
	if r.Status != StatusOK {
		if err := d.done(); err != nil {
			return nil, err
		}
		return r, nil
	}
	switch r.Op {
	case OpLookup, OpCreate:
		r.Handle = d.u64()
		r.Attr = d.attr()
	case OpGetattr:
		r.Attr = d.attr()
	case OpRead:
		r.Data = d.bytes()
	case OpWrite:
		r.N = d.u32()
	case OpReaddir:
		n := int(d.u32())
		if n > MaxFrame/3 {
			return nil, fmt.Errorf("%w: READDIR entry count %d implausible", ErrProto, n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			r.Entries = append(r.Entries, DirEnt{Name: d.str(), Dir: d.bool()})
		}
	case OpStatfs:
		r.Statfs = Statfs{
			BlockSize: d.i64(),
			SimTimeNs: d.i64(),
			Degraded:  d.bool(),
			Sessions:  d.i64(),
			OpsServed: d.i64(),
		}
	case OpHello:
		r.Token = d.str()
		r.Lease = d.i64()
		r.Resumed = d.bool()
	case OpBopen:
		r.Handle = d.u64()
		r.Size = d.i64()
	case OpBread:
		r.Data = d.bytes()
	case OpBwrite:
		r.N = d.u32()
	case OpShares:
		n := int(d.u32())
		if n > MaxFrame/3 {
			return nil, fmt.Errorf("%w: SHARES entry count %d implausible", ErrProto, n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			r.Entries = append(r.Entries, DirEnt{Name: d.str(), Dir: d.bool()})
		}
	case OpMkdir, OpUnlink, OpRmdir, OpRename, OpFsync, OpPing, OpBflush, OpBdiscard, OpAttach:
	default:
		return nil, fmt.Errorf("%w: unknown reply op %d", ErrProto, uint8(r.Op))
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return r, nil
}
