package blobfs

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"time"

	"betrfs/internal/codec"
)

// A blob is one inode's node, sealed behind a self-validating header so
// that recovery tells a durable blob from one a crash tore or never
// persisted: the file system's magic, the owning inode (a stale table entry
// may point at blocks since reused by another inode), the payload length
// and the payload's CRC.
const headerSize = 4 + 8 + 4 + 4

// LocSize is the size of one location-table entry: the blob's first block
// and its block count, or all ones and zero for an absent inode.
const LocSize = 16

func sealBlob(magic uint32, ino Ino, payload []byte) []byte {
	b := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(b[0:], magic)
	binary.BigEndian.PutUint64(b[4:], uint64(ino))
	binary.BigEndian.PutUint32(b[12:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[16:], crc32.ChecksumIEEE(payload))
	copy(b[headerSize:], payload)
	return b
}

// openBlob validates a sealed blob's header and returns its payload.
func openBlob(magic uint32, ino Ino, b []byte) ([]byte, error) {
	if len(b) < headerSize {
		return nil, fmt.Errorf("blob for inode %d too short", ino)
	}
	if binary.BigEndian.Uint32(b[0:]) != magic {
		return nil, fmt.Errorf("blob for inode %d has bad magic", ino)
	}
	if got := Ino(binary.BigEndian.Uint64(b[4:])); got != ino {
		return nil, fmt.Errorf("blob claims inode %d, table says %d", got, ino)
	}
	plen := int(binary.BigEndian.Uint32(b[12:]))
	if headerSize+plen > len(b) {
		return nil, fmt.Errorf("blob for inode %d has bad length %d", ino, plen)
	}
	payload := b[headerSize : headerSize+plen]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[16:]) {
		return nil, fmt.Errorf("blob for inode %d failed checksum", ino)
	}
	return payload, nil
}

// encodeNode encodes n's attributes, its block map as runs of logical,
// physical and count in logical order, and a directory's entries in name
// order, all as big-endian 64-bit words (codec fields).
func encodeNode(n *Node) []byte {
	e := codec.Encoder{Buf: make([]byte, 0, 256)}
	flags := int64(0)
	if n.Dir {
		flags = 1
	}
	e.I64(flags)
	e.I64(n.Size)
	e.I64(int64(n.Nlink))
	e.I64(int64(n.Mtime))
	blks := make([]int64, 0, len(n.Blocks))
	for l := range n.Blocks {
		blks = append(blks, l)
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	type run struct{ l, p, c int64 }
	var runs []run
	for _, l := range blks {
		p := n.Blocks[l]
		if len(runs) > 0 {
			last := &runs[len(runs)-1]
			if l == last.l+last.c && p == last.p+last.c {
				last.c++
				continue
			}
		}
		runs = append(runs, run{l, p, 1})
	}
	e.I64(int64(len(runs)))
	for _, r := range runs {
		e.I64(r.l)
		e.I64(r.p)
		e.I64(r.c)
	}
	if n.Dir {
		e.I64(int64(len(n.Children)))
		names := make([]string, 0, len(n.Children))
		for name := range n.Children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			e.I64(int64(len(name)))
			e.String(name)
			c := n.Children[name]
			e.I64(int64(c.Ino))
			if c.Dir {
				e.I64(1)
			} else {
				e.I64(0)
			}
		}
	}
	return e.Buf
}

// decodeNode decodes a payload encodeNode wrote. Every count and length is
// checked against what is left of the payload before it is used, and every
// block run against an area of areaBlocks blocks before it is expanded, so
// a damaged payload is an error in time and memory bounded by its size and
// the area's, never a panic.
func decodeNode(ino Ino, b []byte, areaBlocks int64) (*Node, error) {
	d := codec.NewDecoder(b)
	flags, size, nlink, mtime := d.I64(), d.I64(), d.I64(), d.I64()
	if flags != 0 && flags != 1 {
		return nil, fmt.Errorf("inode %d has bad flags %#x", ino, flags)
	}
	n := &Node{Ino: ino, Dir: flags == 1, Size: size, Nlink: int(nlink), Mtime: time.Duration(mtime), Blocks: map[int64]int64{}}
	runs := d.I64()
	if runs < 0 || runs > int64(d.Len()/24) {
		return nil, fmt.Errorf("inode %d has bad run count %d", ino, runs)
	}
	var mapped, next int64 // blocks mapped so far; the least logical block the next run may start at
	for i := int64(0); i < runs; i++ {
		l, p, c := d.I64(), d.I64(), d.I64()
		if l < next || c <= 0 || l > math.MaxInt64-c || p < 0 || p > areaBlocks || c > areaBlocks-p || c > areaBlocks-mapped {
			return nil, fmt.Errorf("inode %d block run (%d,%d,%d) out of range", ino, l, p, c)
		}
		for j := int64(0); j < c; j++ {
			n.Blocks[l+j] = p + j
		}
		mapped, next = mapped+c, l+c
	}
	if n.Dir {
		count := d.I64()
		if count < 0 || count > int64(d.Len()/24) {
			return nil, fmt.Errorf("inode %d has bad entry count %d", ino, count)
		}
		n.Children = make(map[string]Child, count)
		for i := int64(0); i < count && d.Err() == nil; i++ {
			name := string(d.Take(int(d.I64())))
			n.Children[name] = Child{Ino: Ino(d.I64()), Dir: d.I64() == 1}
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("inode %d payload of %d bytes: %w", ino, len(b), err)
	}
	return n, nil
}

// putLoc encodes one location-table entry; ok false encodes an absent
// inode, as does a Loc whose First is -1.
func putLoc(e []byte, loc Loc, ok bool) {
	if !ok {
		loc = Loc{First: -1}
	}
	binary.BigEndian.PutUint64(e, uint64(loc.First))
	binary.BigEndian.PutUint64(e[8:], uint64(loc.Count))
}

// getLoc decodes one location-table entry.
func getLoc(e []byte) (Loc, bool) {
	f := binary.BigEndian.Uint64(e)
	return Loc{First: int64(f), Count: int(binary.BigEndian.Uint64(e[8:]))}, f != math.MaxUint64
}
