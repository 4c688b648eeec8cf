// Package keys implements BetrFS's full-path key schema.
//
// BetrFS indexes metadata and data by complete path so that logical
// locality in the directory hierarchy becomes physical locality on the
// device (§2.2). The encoding here makes plain bytewise comparison produce
// a depth-first traversal order:
//
//   - A path's components are joined with 0x00, which sorts below every
//     byte that can appear in a file name.
//   - The subtree rooted at directory D occupies exactly the key range
//     [enc(D)+0x00, enc(D)+0x01), so a recursive delete is one range
//     delete, and a directory's entry sorts immediately before its
//     children.
//   - Data-index keys append a 0x00 separator and a big-endian block
//     number, so a file's blocks are contiguous and in order, and a
//     directory's subtree range covers all descendant file blocks too.
package keys

import (
	"bytes"
	"encoding/binary"
	"strings"
)

// Sep separates path components in encoded keys; it sorts below every
// legal file-name byte.
const Sep = 0x00

// RangeEnd is Sep+1; appending it to an encoded directory key yields the
// exclusive upper bound of the directory's subtree.
const RangeEnd = 0x01

// Clean canonicalizes a slash-separated path: leading/trailing slashes and
// empty components are dropped. The root directory is "".
func Clean(path string) string {
	parts := Split(path)
	return strings.Join(parts, "/")
}

// Split returns the non-empty components of a slash-separated path.
func Split(path string) []string {
	raw := strings.Split(path, "/")
	parts := raw[:0]
	for _, p := range raw {
		if p != "" && p != "." {
			parts = append(parts, p)
		}
	}
	return parts
}

// Encode converts a slash-separated path into its key form. The root
// encodes to an empty key.
func Encode(path string) []byte {
	parts := Split(path)
	if len(parts) == 0 {
		return []byte{}
	}
	n := len(parts) - 1
	for _, p := range parts {
		n += len(p)
	}
	out := make([]byte, 0, n)
	for i, p := range parts {
		if i > 0 {
			out = append(out, Sep)
		}
		out = append(out, p...)
	}
	return out
}

// Decode converts an encoded path key back to a slash-separated path.
func Decode(key []byte) string {
	return string(bytes.ReplaceAll(key, []byte{Sep}, []byte{'/'}))
}

// MetaKey returns the metadata-index key for path.
func MetaKey(path string) []byte { return Encode(path) }

// DataKey returns the data-index key for block blk of the file at path.
func DataKey(path string, blk uint64) []byte {
	p := Encode(path)
	out := make([]byte, len(p)+1+8)
	copy(out, p)
	out[len(p)] = Sep
	binary.BigEndian.PutUint64(out[len(p)+1:], blk)
	return out
}

// DataKeyBlock extracts the block number from a data-index key for the
// file at path. It panics if key does not belong to that file.
func DataKeyBlock(path string, key []byte) uint64 {
	p := Encode(path)
	if len(key) != len(p)+9 || !bytes.HasPrefix(key, p) || key[len(p)] != Sep {
		panic("keys: data key does not belong to path")
	}
	return binary.BigEndian.Uint64(key[len(p)+1:])
}

// SubtreeRange returns the half-open key range [lo, hi) covering every
// key strictly below path (children, grandchildren, and — in the data
// index — their blocks). The path's own key is not included. For the root
// the range covers the whole keyspace of encodable paths (file names never
// begin with 0xff, which is not valid UTF-8).
func SubtreeRange(path string) (lo, hi []byte) {
	p := Encode(path)
	if len(p) == 0 {
		return []byte{}, []byte{0xff}
	}
	lo = append(append([]byte{}, p...), Sep)
	hi = append(append([]byte{}, p...), RangeEnd)
	return lo, hi
}

// FileDataRange returns the data-index key range covering all blocks of
// the file at path.
func FileDataRange(path string) (lo, hi []byte) {
	return SubtreeRange(path)
}

// ChildRange returns the metadata-index range to scan for the direct
// children of directory path. It is SubtreeRange: direct children are
// interleaved with their own subtrees in key order, so the range also
// holds every deeper descendant, and callers iterating [lo, hi) keep only
// the keys for which IsDirectChild holds.
func ChildRange(path string) (lo, hi []byte) {
	return SubtreeRange(path)
}

// IsDirectChild reports whether key (a metadata key) is a direct child of
// the directory whose encoded key is dirKey.
func IsDirectChild(dirKey, key []byte) bool {
	if len(dirKey) > 0 {
		if !bytes.HasPrefix(key, dirKey) || len(key) <= len(dirKey) || key[len(dirKey)] != Sep {
			return false
		}
		key = key[len(dirKey)+1:]
	}
	if len(key) == 0 {
		return false
	}
	return bytes.IndexByte(key, Sep) < 0
}

// Join appends name to a directory path.
func Join(dir, name string) string {
	if dir == "" {
		return name
	}
	return dir + "/" + name
}

// ParentAndName splits a cleaned path into its parent directory and final
// component. The root has parent "" and name "".
func ParentAndName(path string) (parent, name string) {
	path = Clean(path)
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return "", path
	}
	return path[:i], path[i+1:]
}

// Compare is the key comparison used throughout: plain bytewise order,
// which the encoding above turns into DFS order.
func Compare(a, b []byte) int { return bytes.Compare(a, b) }

// CommonPrefix returns the length of the shared prefix of a and b; the
// Bε-tree's lifting optimization stores this once per subtree.
func CommonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// RewritePrefix replaces oldPrefix at the start of key with newPrefix,
// implementing the key transform of a range rename. It panics if key does
// not start with oldPrefix.
func RewritePrefix(key, oldPrefix, newPrefix []byte) []byte {
	if !bytes.HasPrefix(key, oldPrefix) {
		panic("keys: rename rewrite on key outside range")
	}
	out := make([]byte, 0, len(newPrefix)+len(key)-len(oldPrefix))
	out = append(out, newPrefix...)
	out = append(out, key[len(oldPrefix):]...)
	return out
}
