// Package ioerr defines the errno-style error taxonomy shared by every
// layer of the stack, from the simulated block device up to the VFS mount
// API. It deliberately imports nothing from the rest of the repository so
// that blockdev, stor, the file systems, and vfs can all reference the same
// sentinel values without dependency cycles.
//
// The contract (DESIGN.md §10):
//
//   - ErrIO is the EIO analog: a device command failed and the data was not
//     transferred. Wrapped DeviceErrors carry the command details and
//     whether the fault is transient (a bounded retry may succeed).
//   - ErrNoSpace is the ENOSPC analog: an allocator ran out of space. It is
//     always recoverable — deleting data must make writes succeed again —
//     and never triggers read-only degradation.
//   - ErrReadOnly is the EROFS analog: the mount has degraded to read-only
//     after a persistent write failure (Linux errors=remount-ro).
package ioerr

import (
	"errors"
	"fmt"
)

// Sentinel errors surfaced at the mount API.
var (
	// ErrIO reports a failed device command (EIO).
	ErrIO = errors.New("I/O error")
	// ErrNoSpace reports allocator exhaustion (ENOSPC).
	ErrNoSpace = errors.New("no space left on device")
	// ErrReadOnly reports a mount degraded to read-only (EROFS).
	ErrReadOnly = errors.New("read-only file system")
)

// DeviceError describes one failed device command. It unwraps to ErrIO so
// callers can classify with errors.Is(err, ioerr.ErrIO) without knowing the
// device details.
type DeviceError struct {
	Op  string // "read", "write", or "flush"
	Off int64  // device offset of the command
	Len int    // transfer length in bytes
	// Transient marks faults that a bounded retry may clear (controller
	// timeouts, read-retry voltage shifts); persistent faults (grown bad
	// sectors, media death) stay failed no matter how often retried.
	Transient bool
}

// Error formats the command like a kernel log line.
func (e *DeviceError) Error() string {
	kind := "persistent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("%s device error: %s off=%d len=%d: %v", kind, e.Op, e.Off, e.Len, ErrIO)
}

// Unwrap makes errors.Is(err, ErrIO) true for every DeviceError.
func (e *DeviceError) Unwrap() error { return ErrIO }

// Abort carries an error through panic across layers whose deep internals
// cannot practically thread error returns (allocators and mutation
// machinery several frames below a public API). Guard recovers it at the
// API boundary; any other panic value — a genuine programmer-invariant
// violation — propagates untouched. This mirrors the encoding/json
// internal-panic pattern.
type Abort struct{ Err error }

// Guard converts an Abort panic into the named error return it deferred
// over. Use as: func (...) (err error) { defer ioerr.Guard(&err); ... }.
func Guard(err *error) {
	switch r := recover().(type) {
	case nil:
	case Abort:
		*err = r.Err
	default:
		panic(r)
	}
}

// Check panics with Abort{err} when err is non-nil; it is the inner-layer
// companion to Guard.
func Check(err error) {
	if err != nil {
		panic(Abort{Err: err})
	}
}
