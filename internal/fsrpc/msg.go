package fsrpc

import (
	"fmt"
	"slices"
	"time"

	"betrfs/internal/codec"
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
	return q.appendPayload(make([]byte, 0, q.sizeHint()))
}

// sizeHint is a payload capacity that holds every field.
func (q *Request) sizeHint() int {
	return 16 + len(q.Path) + len(q.Path2) + len(q.Data)
}

// appendFrame appends q to buf as one complete wire frame, length prefix
// included, so that the frame leaves in one Write.
func (q *Request) appendFrame(buf []byte) ([]byte, error) {
	start := len(buf)
	buf = q.appendPayload(append(slices.Grow(buf, 4+q.sizeHint()), 0, 0, 0, 0))
	if err := putLen(buf[start:], len(buf)-start-4); err != nil {
		return nil, err
	}
	return buf, nil
}

// appendPayload appends the request payload to buf.
func (q *Request) appendPayload(buf []byte) []byte {
	e := &codec.Encoder{Buf: buf}
	e.U8(uint8(q.Op))
	e.U64(q.Tag)
	switch q.Op {
	case OpLookup:
		putStr(e, q.Path)
		e.U8(q.Flags)
	case OpGetattr, OpReaddir, OpBopen, OpAttach:
		putStr(e, q.Path)
	case OpMkdir, OpUnlink, OpRmdir, OpCreate:
		putStr(e, q.Path)
		e.U64(q.Seq)
	case OpRename:
		putStr(e, q.Path)
		putStr(e, q.Path2)
		e.U64(q.Seq)
	case OpRead, OpBread:
		e.U64(q.Handle)
		e.I64(q.Off)
		e.U32(q.N)
	case OpWrite, OpBwrite:
		e.U64(q.Handle)
		e.I64(q.Off)
		putBytes(e, q.Data)
		if q.Op == OpWrite {
			e.U64(q.Seq)
		}
	case OpFsync, OpBflush:
		e.U64(q.Handle)
	case OpStatfs, OpPing, OpShares:
	case OpHello:
		putStr(e, q.Token)
	case OpBdiscard:
		e.U64(q.Handle)
		e.I64(q.Off)
		e.I64(q.Len)
	}
	return e.Buf
}

// DecodeRequest parses a request payload into a new Request.
func DecodeRequest(payload []byte) (*Request, error) {
	q := new(Request)
	if err := q.Decode(payload); err != nil {
		return nil, err
	}
	return q, nil
}

// Decode parses a request payload into q, overwriting every field: nothing
// q held before survives, and the strings and data it keeps are copies, so
// q outlives the payload.
func (q *Request) Decode(payload []byte) error {
	d := codec.NewDecoder(payload)
	*q = Request{Op: Op(d.U8()), Tag: d.U64()}
	switch q.Op {
	case OpLookup:
		q.Path = getStr(&d)
		q.Flags = d.U8()
	case OpGetattr, OpReaddir, OpBopen, OpAttach:
		q.Path = getStr(&d)
	case OpMkdir, OpUnlink, OpRmdir, OpCreate:
		q.Path = getStr(&d)
		q.Seq = d.U64()
	case OpRename:
		q.Path = getStr(&d)
		q.Path2 = getStr(&d)
		q.Seq = d.U64()
	case OpRead, OpBread:
		q.Handle = d.U64()
		q.Off = d.I64()
		q.N = d.U32()
	case OpWrite, OpBwrite:
		q.Handle = d.U64()
		q.Off = d.I64()
		q.Data = getBytes(&d)
		if q.Op == OpWrite {
			q.Seq = d.U64()
		}
	case OpFsync, OpBflush:
		q.Handle = d.U64()
	case OpStatfs, OpPing, OpShares:
	case OpHello:
		q.Token = getStr(&d)
	case OpBdiscard:
		q.Handle = d.U64()
		q.Off = d.I64()
		q.Len = d.I64()
	default:
		return fmt.Errorf("%w: unknown op %d", ErrProto, uint8(q.Op))
	}
	if err := q.checkSize(); err != nil {
		return err
	}
	return done(&d)
}

// checkSize refuses, with ErrProto, a READ or BREAD of more than MaxData
// bytes, a WRITE or BWRITE carrying more, and a Path, Path2 or Token longer
// than a wire string holds. A server refuses such a request on arrival; a
// client refuses it before sending, failing only that call.
func (q *Request) checkSize() error {
	n := 0
	switch q.Op {
	case OpRead, OpBread:
		n = int(q.N)
	case OpWrite, OpBwrite:
		n = len(q.Data)
	}
	if n > MaxData {
		return fmt.Errorf("%w: %v of %d bytes exceeds MaxData %d", ErrProto, q.Op, n, MaxData)
	}
	for _, s := range [...]string{q.Path, q.Path2, q.Token} {
		if len(s) > maxStr {
			return fmt.Errorf("%w: %v string of %d bytes exceeds %d", ErrProto, q.Op, len(s), maxStr)
		}
	}
	return nil
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

func putAttr(e *codec.Encoder, a Attr) {
	e.Bool(a.Dir)
	e.I64(a.Size)
	e.U32(uint32(a.Nlink))
	e.I64(int64(a.Mtime))
}

func getAttr(d *codec.Decoder) Attr {
	return Attr{Dir: d.Bool(), Size: d.I64(), Nlink: int(d.U32()), Mtime: time.Duration(d.I64())}
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
	e := &codec.Encoder{Buf: buf}
	e.U8(uint8(r.Op) | replyBit)
	e.U64(r.Tag)
	e.U8(uint8(r.Status))
	if r.Status != StatusOK {
		return e.Buf
	}
	switch r.Op {
	case OpLookup, OpCreate:
		e.U64(r.Handle)
		putAttr(e, r.Attr)
	case OpGetattr:
		putAttr(e, r.Attr)
	case OpRead, OpBread:
		putBytes(e, r.Data)
	case OpWrite, OpBwrite:
		e.U32(r.N)
	case OpReaddir, OpShares:
		e.U32(uint32(len(r.Entries)))
		for _, ent := range r.Entries {
			putStr(e, ent.Name)
			e.Bool(ent.Dir)
		}
	case OpStatfs:
		e.I64(r.Statfs.BlockSize)
		e.I64(r.Statfs.SimTimeNs)
		e.Bool(r.Statfs.Degraded)
		e.I64(r.Statfs.Sessions)
		e.I64(r.Statfs.OpsServed)
	case OpHello:
		putStr(e, r.Token)
		e.I64(r.Lease)
		e.Bool(r.Resumed)
	case OpBopen:
		e.U64(r.Handle)
		e.I64(r.Size)
	case OpMkdir, OpUnlink, OpRmdir, OpRename, OpFsync, OpPing, OpBflush, OpBdiscard, OpAttach:
	}
	return e.Buf
}

// Frame renders the reply as one complete wire frame (length prefix
// included) in at most two parts, byte-identical to WriteFrame(w,
// r.Encode()). For a successful READ or BREAD, head is the 18-byte frame
// header built in scratch (reused when its capacity suffices) and body is
// r.Data itself, so a read payload travels device buffer → socket with no
// intermediate copy. Every other reply encodes straight into scratch
// behind the length prefix: head is the whole frame and body is nil.
func (r *Reply) Frame(scratch []byte) (head, body []byte, err error) {
	if (r.Op == OpRead || r.Op == OpBread) && r.Status == StatusOK {
		e := &codec.Encoder{Buf: append(scratch[:0], 0, 0, 0, 0)}
		e.U8(uint8(r.Op) | replyBit)
		e.U64(r.Tag)
		e.U8(uint8(r.Status))
		e.U32(uint32(len(r.Data)))
		if err := putLen(e.Buf, len(e.Buf)-4+len(r.Data)); err != nil {
			return nil, nil, err
		}
		return e.Buf, r.Data, nil
	}
	buf := r.appendPayload(append(slices.Grow(scratch[:0], 4+r.sizeHint()), 0, 0, 0, 0))
	if err := putLen(buf, len(buf)-4); err != nil {
		return nil, nil, err
	}
	return buf, nil, nil
}

// FrameParts is Frame as a scatter-gather segment list; zerocopy reports
// how many payload bytes were passed by reference.
func (r *Reply) FrameParts(scratch []byte) (segs [][]byte, zerocopy int, err error) {
	head, body, err := r.Frame(scratch)
	if err != nil {
		return nil, 0, err
	}
	if body == nil {
		return [][]byte{head}, 0, nil
	}
	return [][]byte{head, body}, len(body), nil
}

// DecodeReply parses a reply payload into a new Reply.
func DecodeReply(payload []byte) (*Reply, error) {
	r := new(Reply)
	if err := r.Decode(payload); err != nil {
		return nil, err
	}
	return r, nil
}

// Decode parses a reply payload into r, overwriting every field: nothing r
// held before survives, and what it keeps is copied, so r outlives the
// payload. The names of a READDIR or SHARES reply are substrings of one
// string, copied once per reply.
func (r *Reply) Decode(payload []byte) error {
	d := codec.NewDecoder(payload)
	opByte := d.U8()
	*r = Reply{Op: Op(opByte &^ replyBit), Tag: d.U64(), Status: Status(d.U8())}
	if opByte&replyBit == 0 {
		return fmt.Errorf("%w: reply bit missing", ErrProto)
	}
	if r.Status != StatusOK {
		return done(&d)
	}
	switch r.Op {
	case OpLookup, OpCreate:
		r.Handle = d.U64()
		r.Attr = getAttr(&d)
	case OpGetattr:
		r.Attr = getAttr(&d)
	case OpRead, OpBread:
		r.Data = getBytes(&d)
	case OpWrite, OpBwrite:
		r.N = d.U32()
	case OpReaddir, OpShares:
		// An entry is at least 3 bytes, so a count the rest of the
		// payload cannot hold is refused before anything is allocated.
		n := int(d.U32())
		if n > d.Len()/3 {
			return fmt.Errorf("%w: %v entry count %d in %d bytes", ErrProto, r.Op, n, d.Len())
		}
		if n > 0 {
			ents, err := getEntries(&d, n)
			if err != nil {
				return err
			}
			r.Entries = ents
		}
	case OpStatfs:
		r.Statfs = Statfs{
			BlockSize: d.I64(),
			SimTimeNs: d.I64(),
			Degraded:  d.Bool(),
			Sessions:  d.I64(),
			OpsServed: d.I64(),
		}
	case OpHello:
		r.Token = getStr(&d)
		r.Lease = d.I64()
		r.Resumed = d.Bool()
	case OpBopen:
		r.Handle = d.U64()
		r.Size = d.I64()
	case OpMkdir, OpUnlink, OpRmdir, OpRename, OpFsync, OpPing, OpBflush, OpBdiscard, OpAttach:
	default:
		return fmt.Errorf("%w: unknown reply op %d", ErrProto, uint8(r.Op))
	}
	return done(&d)
}

// getEntries reads the n entries that end the payload. The entry bytes are
// copied into one string and each name is a substring of it, so a listing
// costs two allocations however long it is.
func getEntries(d *codec.Decoder, n int) ([]DirEnt, error) {
	raw := d.Take(d.Len())
	all := string(raw)
	ed := codec.NewDecoder(raw)
	ents := make([]DirEnt, n)
	for i := range ents {
		l := int(ed.U16())
		off := len(raw) - ed.Len()
		if ed.Take(l); ed.Err() != nil {
			break
		}
		ents[i] = DirEnt{Name: all[off : off+l], Dir: ed.Bool()}
	}
	if err := done(&ed); err != nil {
		return nil, err
	}
	return ents, nil
}
