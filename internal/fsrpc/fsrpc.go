// Package fsrpc defines the wire protocol of the network file-service
// layer (DESIGN.md §11): a framed, length-prefixed binary request/response
// protocol that exposes the vfs.Mount API over any byte stream — an
// in-process net.Pipe for deterministic tests and benchmarks, or TCP via
// cmd/fsserved for real use.
//
// A frame is a 4-byte big-endian payload length followed by the payload.
// Request payloads are
//
//	op   uint8      operation code (OpLookup … OpShares)
//	tag  uint64     client-chosen request identifier, echoed in the reply
//	body            op-specific fields (see msg.go)
//
// and reply payloads are
//
//	op     uint8    the request's op with the reply bit (0x80) set
//	tag    uint64   echo of the request tag
//	status uint8    errno-style status code (StatusOK on success)
//	body            op-specific fields, present only when status == StatusOK
//
// Integers are big-endian and fixed-width; strings carry a uint16 length
// prefix and byte blobs a uint32 prefix. Frames are bounded by MaxFrame,
// data transfers by MaxData — a peer that sends an oversized frame is
// protocol-broken and the connection is torn down.
//
// Status codes are the errno analogs of the repo's error taxonomy
// (internal/ioerr plus the vfs namespace errors); StatusOf and
// (Status).Err convert between Go error values and wire codes so a client
// sees the same sentinel errors a direct vfs.Mount caller would.
package fsrpc

import (
	"errors"
	"fmt"

	"betrfs/internal/ioerr"
	"betrfs/internal/vfs"
)

// Op is a wire operation code.
type Op uint8

// The protocol operations. The numeric values are wire format; never
// reorder them.
const (
	OpLookup Op = iota + 1
	OpGetattr
	OpRead
	OpWrite
	OpCreate
	OpMkdir
	OpUnlink
	OpRmdir
	OpRename
	OpReaddir
	OpFsync
	OpStatfs
	OpHello
	OpPing
	OpBopen
	OpBread
	OpBwrite
	OpBflush
	OpBdiscard
	OpAttach
	OpShares
)

// replyBit marks a reply payload's op byte.
const replyBit = 0x80

// Ops lists every operation in wire order (conformance tests sweep it).
var Ops = []Op{
	OpLookup, OpGetattr, OpRead, OpWrite, OpCreate, OpMkdir,
	OpUnlink, OpRmdir, OpRename, OpReaddir, OpFsync, OpStatfs,
	OpHello, OpPing, OpBopen, OpBread, OpBwrite, OpBflush,
	OpBdiscard, OpAttach, OpShares,
}

// Mutating reports whether op changes file-system state. Mutating requests
// carry a per-session sequence number so the server's duplicate-reply
// cache can make replays after a reconnect exactly-once (DESIGN.md §13.9);
// read-class ops are idempotent and retry freely. FSYNC is classified
// read-class: re-running it is harmless. The block class (§14) is
// deliberately unsequenced too: BWRITE and BDISCARD name absolute device
// offsets, so re-applying one is idempotent by construction.
func (o Op) Mutating() bool {
	switch o {
	case OpWrite, OpCreate, OpMkdir, OpUnlink, OpRmdir, OpRename:
		return true
	}
	return false
}

// Block reports whether op belongs to the block-store class (DESIGN.md
// §14): it operates on a named block share through a block handle rather
// than on the file namespace. ATTACH and SHARES are control-plane ops,
// not block ops — they inspect or rebind the session's shares.
func (o Op) Block() bool {
	switch o {
	case OpBopen, OpBread, OpBwrite, OpBflush, OpBdiscard:
		return true
	}
	return false
}

// String returns the lower-case op mnemonic used in metric names.
func (o Op) String() string {
	switch o {
	case OpLookup:
		return "lookup"
	case OpGetattr:
		return "getattr"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpCreate:
		return "create"
	case OpMkdir:
		return "mkdir"
	case OpUnlink:
		return "unlink"
	case OpRmdir:
		return "rmdir"
	case OpRename:
		return "rename"
	case OpReaddir:
		return "readdir"
	case OpFsync:
		return "fsync"
	case OpStatfs:
		return "statfs"
	case OpHello:
		return "hello"
	case OpPing:
		return "ping"
	case OpBopen:
		return "bopen"
	case OpBread:
		return "bread"
	case OpBwrite:
		return "bwrite"
	case OpBflush:
		return "bflush"
	case OpBdiscard:
		return "bdiscard"
	case OpAttach:
		return "attach"
	case OpShares:
		return "shares"
	default:
		return fmt.Sprintf("op%d", uint8(o))
	}
}

// Wire size limits. MaxData bounds one READ/WRITE transfer; MaxFrame
// bounds any frame (a READDIR of a huge directory is the largest reply).
const (
	MaxData  = 256 << 10
	MaxFrame = 4 << 20
)

// Status is an errno-style wire status code.
type Status uint8

// The status codes. Numeric values are wire format; never reorder.
const (
	StatusOK Status = iota
	StatusNotExist
	StatusExist
	StatusNotDir
	StatusIsDir
	StatusNotEmpty
	StatusIO
	StatusNoSpace
	StatusReadOnly
	StatusBusy
	StatusBadHandle
	StatusInval
	StatusShutdown
	StatusProto
	StatusStale
	StatusRetired
	StatusNameTooLong
)

// Client-visible sentinel errors for the service-level statuses that have
// no vfs analog. The vfs/ioerr statuses decode to the shared sentinels
// (vfs.ErrNotExist, ioerr.ErrIO, …) so wire callers classify errors
// exactly like direct mount callers.
var (
	// ErrBusy is EBUSY: the server shed the request under admission
	// control (queue saturated or queue-wait deadline exceeded).
	ErrBusy = errors.New("fsrpc: server busy (request shed)")
	// ErrBadHandle is EBADF: the request named a handle the session does
	// not hold (never issued, or evicted from the bounded handle table).
	ErrBadHandle = errors.New("fsrpc: bad file handle")
	// ErrShutdown reports a request that reached a draining server.
	ErrShutdown = errors.New("fsrpc: server shutting down")
	// ErrProto reports a malformed or oversized frame.
	ErrProto = errors.New("fsrpc: protocol error")
	// ErrStaleSession is ESTALE: a HELLO named a session token the server
	// no longer holds — the lease expired or the server restarted — so the
	// session's handles and duplicate-reply cache are gone (DESIGN.md §13.9).
	ErrStaleSession = errors.New("fsrpc: stale session (lease expired or unknown token)")
	// ErrSeqRetired is ERETIRED: a replayed mutation's sequence number fell
	// behind the server's duplicate-reply cache horizon, so the server can
	// neither re-execute it safely nor return the original reply.
	ErrSeqRetired = errors.New("fsrpc: sequence retired from duplicate-reply cache")
)

// String returns the errno-style name of s.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotExist:
		return "ENOENT"
	case StatusExist:
		return "EEXIST"
	case StatusNotDir:
		return "ENOTDIR"
	case StatusIsDir:
		return "EISDIR"
	case StatusNotEmpty:
		return "ENOTEMPTY"
	case StatusIO:
		return "EIO"
	case StatusNoSpace:
		return "ENOSPC"
	case StatusReadOnly:
		return "EROFS"
	case StatusBusy:
		return "EBUSY"
	case StatusBadHandle:
		return "EBADF"
	case StatusInval:
		return "EINVAL"
	case StatusShutdown:
		return "ESHUTDOWN"
	case StatusProto:
		return "EPROTO"
	case StatusStale:
		return "ESTALE"
	case StatusRetired:
		return "ERETIRED"
	case StatusNameTooLong:
		return "ENAMETOOLONG"
	default:
		return fmt.Sprintf("status%d", uint8(s))
	}
}

// StatusOf maps a Go error from the vfs/ioerr taxonomy to its wire status.
// EROFS is checked before EIO because a degraded mount's gate error wraps
// ErrReadOnly while the latched cause wraps ErrIO; the gate is the
// operation's observable result.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, vfs.ErrNotExist):
		return StatusNotExist
	case errors.Is(err, vfs.ErrExist):
		return StatusExist
	case errors.Is(err, vfs.ErrNotDir):
		return StatusNotDir
	case errors.Is(err, vfs.ErrIsDir):
		return StatusIsDir
	case errors.Is(err, vfs.ErrNotEmpty):
		return StatusNotEmpty
	case errors.Is(err, vfs.ErrNameTooLong):
		return StatusNameTooLong
	case errors.Is(err, ioerr.ErrReadOnly):
		return StatusReadOnly
	case errors.Is(err, ioerr.ErrNoSpace):
		return StatusNoSpace
	case errors.Is(err, ioerr.ErrIO):
		return StatusIO
	case errors.Is(err, ErrBusy):
		return StatusBusy
	case errors.Is(err, ErrBadHandle):
		return StatusBadHandle
	case errors.Is(err, ErrShutdown):
		return StatusShutdown
	case errors.Is(err, ErrProto):
		return StatusProto
	case errors.Is(err, ErrStaleSession):
		return StatusStale
	case errors.Is(err, ErrSeqRetired):
		return StatusRetired
	default:
		return StatusInval
	}
}

// Err converts a wire status back into the canonical Go error; StatusOK
// returns nil. The round trip StatusOf(s.Err()) == s holds for every code,
// so wire clients and direct mount callers classify identically.
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusNotExist:
		return vfs.ErrNotExist
	case StatusExist:
		return vfs.ErrExist
	case StatusNotDir:
		return vfs.ErrNotDir
	case StatusIsDir:
		return vfs.ErrIsDir
	case StatusNotEmpty:
		return vfs.ErrNotEmpty
	case StatusIO:
		return ioerr.ErrIO
	case StatusNoSpace:
		return ioerr.ErrNoSpace
	case StatusReadOnly:
		return ioerr.ErrReadOnly
	case StatusBusy:
		return ErrBusy
	case StatusBadHandle:
		return ErrBadHandle
	case StatusShutdown:
		return ErrShutdown
	case StatusProto:
		return ErrProto
	case StatusStale:
		return ErrStaleSession
	case StatusRetired:
		return ErrSeqRetired
	case StatusNameTooLong:
		return vfs.ErrNameTooLong
	default:
		return fmt.Errorf("fsrpc: %s", s)
	}
}
