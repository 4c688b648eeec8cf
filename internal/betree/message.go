// Package betree implements the write-optimized Bε-tree at the core of
// BetrFS (§2), ported from scratch rather than from TokuDB, together with
// the optimizations the paper contributes: range-message coalescing with
// directory-wide deletes feeding PacMan (§4), the revised apply-on-query
// policy (§4), cooperative memory management hooks (§5), insert-by-reference
// page sharing (§6), tree-level read-ahead (§3.2), and checkpoint/redo-log
// crash consistency (§2.2).
//
// The tree stores key-value pairs in leaves partitioned into basement
// nodes; interior nodes buffer messages per child and flush them downward
// in batches, which is what turns many small random updates into few large
// sequential I/Os.
package betree

import (
	"fmt"

	"betrfs/internal/keys"
)

// MSN is a message sequence number; all messages are totally ordered by
// MSN and are applied to leaf entries in MSN order exactly once.
type MSN uint64

// MsgType enumerates the message kinds the tree understands.
type MsgType uint8

// Message kinds. RangeDelete is the range-message primitive of §4;
// Update is a blind sub-value write (§2.1 "blind writes").
const (
	MsgInsert MsgType = iota + 1
	MsgDelete
	MsgUpdate
	MsgRangeDelete
)

// String implements fmt.Stringer for diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgInsert:
		return "insert"
	case MsgDelete:
		return "delete"
	case MsgUpdate:
		return "update"
	case MsgRangeDelete:
		return "rangedelete"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// PageRef is an opaque reference to an externally owned, immutable page of
// file data — the insertByRef mechanism of §6. The VFS page cache supplies
// implementations; while a reference is held the owner must not mutate the
// underlying bytes (the VFS copies-on-write instead).
type PageRef interface {
	// Data returns the page contents. The tree treats them as immutable.
	Data() []byte
	// Len returns the page length without materializing it.
	Len() int
	// Release drops the tree's reference, re-enabling in-place writes.
	Release()
}

// Value is a message or entry payload: either inline bytes or a PageRef.
type Value struct {
	inline []byte
	ref    PageRef
}

// InlineValue wraps a byte slice as a value. The tree takes ownership of
// the slice.
func InlineValue(b []byte) Value { return Value{inline: b} }

// RefValue wraps a page reference as a value (insertByRef).
func RefValue(r PageRef) Value { return Value{ref: r} }

// IsRef reports whether the value is held by reference.
func (v Value) IsRef() bool { return v.ref != nil }

// Len returns the value size in bytes.
func (v Value) Len() int {
	if v.ref != nil {
		return v.ref.Len()
	}
	return len(v.inline)
}

// Bytes materializes the value contents. For references this does not
// copy; callers must not mutate the result.
func (v Value) Bytes() []byte {
	if v.ref != nil {
		return v.ref.Data()
	}
	return v.inline
}

// Release drops any page reference held by the value.
func (v Value) Release() {
	if v.ref != nil {
		v.ref.Release()
	}
}

// Msg is one Bε-tree message.
type Msg struct {
	Type MsgType
	MSN  MSN
	// Key targets a single pair for point messages, or the inclusive
	// lower bound for range deletes.
	Key []byte
	// EndKey is the exclusive upper bound of a range delete.
	EndKey []byte
	// Val carries the payload of inserts and updates.
	Val Value
	// Off is the byte offset within the existing value that an update
	// patches.
	Off int
}

// memBytes estimates the in-memory footprint of the message, used for
// buffer accounting and flush thresholds.
func (m *Msg) memBytes() int {
	n := 48 + len(m.Key) + len(m.EndKey)
	n += m.Val.Len()
	return n
}

// covers reports whether a range-delete message covers key.
func (m *Msg) covers(key []byte) bool {
	return m.Type == MsgRangeDelete &&
		keys.Compare(m.Key, key) <= 0 && keys.Compare(key, m.EndKey) < 0
}

// overlapsRange reports whether the message affects any key in [lo, hi).
func (m *Msg) overlapsRange(lo, hi []byte) bool {
	if m.Type == MsgRangeDelete {
		return keys.Compare(m.Key, hi) < 0 && keys.Compare(lo, m.EndKey) < 0
	}
	return keys.Compare(lo, m.Key) <= 0 && keys.Compare(m.Key, hi) < 0
}
