package betree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"betrfs/internal/codec"
	keylen "betrfs/internal/keys"
	"betrfs/internal/sim"
)

// ErrChecksum reports that an on-disk image (node shell, basement, or
// whole node) failed checksum verification — a torn write, bit-rot, or a
// latent sector error. Callers detect it with errors.Is and degrade
// gracefully instead of consuming garbage.
var ErrChecksum = errors.New("betree: checksum mismatch")

// On-disk node format.
//
// Common header (40 bytes):
//
//	[0:4]   crc32 over [4:total] (whole-image checksum)
//	[4:8]   magic
//	[8:12]  height
//	[12:20] node id
//	[20:24] total serialized length
//	[24:28] a leaf's page-section base offset (0 in an interior node)
//	[28:32] partition count: basements, or children
//	[32:36] shell end
//	[36:40] crc32 over [4:36] ++ [40:shellEnd] (shell checksum)
//
// Every node is a shell followed by its partitions. The shell is the
// header, a directory with one fixed-size slot per partition, and the
// keys that route to them; it is what a partial read decodes from the
// leading headerRegion bytes of the image.
//
// A leaf's partitions are its basements. Its shell holds a 32-byte slot
// per basement (small-section offset and length, page-range offset and
// length, maxApplied, entry count, crc) and then the basements' first
// keys. Each basement has a small section (entry count, the lifted key
// prefix, keys and small values) and, in the page-sharing format (§6), a
// page range in one 4 KiB-aligned page section at the tail of the node, so
// that file blocks land in aligned buffers and can be written
// scatter-gather without a serialization copy.
//
// An interior node's partitions are its child buffers. Its shell holds a
// 28-byte slot per child (partition offset, small-section length,
// page-range length, message count, key bytes, key-filter length, crc),
// then the pivots, the child IDs, and each buffer's key filter: a Bloom
// filter over its point messages' keys (filterProbe), which lets a point
// read skip a partition that holds nothing for its key. A buffer holding
// a range delete, or a shell without room, has none (length 0). Each
// partition is one contiguous range: the buffer's
// messages, in index order with point messages first, and directly after
// them the aligned payloads of its page-valued inserts. Padding goes in
// front of a partition that has pages, so its small section ends on a
// block boundary, and loading the partition is one device read.
//
// Checksums come in three granularities so every read path is verified
// (fault model, DESIGN.md): the whole-image crc covers full node reads;
// the shell crc covers the header-region read of a partial read; and
// each directory slot carries a crc over its partition's small section
// and page range, covering partition-granular reads. A torn node write
// therefore cannot yield a silently wrong partial read: either the shell
// crc or the partition crc fails and the read surfaces ErrChecksum. The
// shell and the partitions tile the image, so the host hashes each byte
// once and derives the others by CRC combination (crc.go).
const (
	nodeMagic      = 0xbe72ee02
	baseHeaderSize = 40
	// dirSlotSize is the size of one basement directory slot.
	dirSlotSize = 32
	// partSlotSize is the size of one child-buffer directory slot.
	partSlotSize = 28
	// filterBitsPerKey is how many key-filter bits an interior shell
	// spends per buffered point message, when its shell has the room.
	filterBitsPerKey = 10
	// alignedValueMin is the value size at or above which the aligned
	// page section is used (when page sharing is on).
	alignedValueMin = 2048
)

// Minimum encoded sizes, which bound every count read from an image by
// the bytes left to hold its items: a value is a flag byte and a 4-byte
// length, a basement entry a 2-byte key length and a value, and a buffered
// message a type byte, an MSN, two key lengths, an offset and a value.
const (
	minValueSize = 1 + 4
	minEntrySize = 2 + minValueSize
	minMsgSize   = 1 + 8 + 2 + 2 + 4 + minValueSize
)

// alignedLen rounds n up to a whole number of blocks.
func alignedLen(n int) int { return int(alignUp(int64(n))) }

// serializeNode encodes n into buf, charging serialization and checksum
// CPU costs, and returns the image. buf is written from its start; when its
// capacity is at least encodedSizeBound(cfg, n) the image is buf's own
// memory, otherwise (nil, say) a buffer of that bound is allocated.
// Returned bytes are 4 KiB-aligned in length. Each partition's descriptor
// in n is updated to its place in the new image.
func serializeNode(env *sim.Env, cfg *Config, n *node, buf []byte) []byte {
	if bound := encodedSizeBound(cfg, n); cap(buf) < bound {
		buf = make([]byte, 0, bound)
	}
	// Header placeholder; patched at the end.
	e := codec.Encoder{Buf: append(buf[:0], make([]byte, baseHeaderSize)...)}
	keyed := func(b []byte) { e.U16(uint16(len(b))); e.Bytes(b) }

	var pages [][]byte // aligned payloads, appended after the small sections
	pageBytes := 0
	encValue := func(v Value) {
		aligned := cfg.PageSharing && v.Len() >= alignedValueMin
		e.Bool(aligned)
		e.U32(uint32(v.Len()))
		if !aligned {
			e.Bytes(v.Bytes())
			return
		}
		e.U32(uint32(pageBytes))
		pages = append(pages, v.Bytes())
		pageBytes += alignedLen(v.Len())
	}
	// appendPages appends the collected payloads, each padded to whole
	// blocks.
	appendPages := func() {
		for _, p := range pages {
			e.Buf = append(e.Buf, p...)
			e.Buf = append(e.Buf, make([]byte, alignedLen(len(p))-len(p))...)
		}
		pages = pages[:0]
	}

	ps := n.parts()
	// small counts the bytes that took CPU serialization work; the aligned
	// page payloads do not (page sharing writes them by reference).
	small, pb, shellEnd := 0, 0, 0
	var filters []int // an interior node's key-filter lengths
	if n.isLeaf() {
		// Basement directory placeholder: fixed-size slots, then
		// variable first keys after the slots.
		for _, b := range n.basements {
			if !b.loaded {
				panic("betree: serializing leaf with unloaded basement")
			}
			e.Buf = append(e.Buf, make([]byte, dirSlotSize)...)
		}
		for _, b := range n.basements {
			keyed(b.lowKey())
		}
		shellEnd = len(e.Buf)
		// Basement small sections. With lifting (§2.2), the longest
		// common prefix of a basement's keys is stored once and
		// stripped from every key — very effective for full-path keys.
		for bi, b := range n.basements {
			start, pstart := len(e.Buf), pageBytes
			e.U32(uint32(len(b.entries)))
			prefix := b.prefix()
			keyed(prefix)
			for i := range b.entries {
				keyed(b.entries[i].key[len(prefix):])
				encValue(b.entries[i].val)
			}
			ps[bi].place(start, len(e.Buf)-start, pstart, pageBytes-pstart, len(b.entries))
		}
		small = len(e.Buf)
		// The page section begins at the next aligned boundary, and each
		// payload is padded to whole blocks, so the image ends aligned.
		pb = alignedLen(len(e.Buf))
		e.Buf = append(e.Buf, make([]byte, pb-len(e.Buf))...)
		appendPages()
		for _, p := range ps {
			p.pageOff += pb
		}
	} else {
		for i := range n.bufs {
			if n.bufs[i].missing {
				panic("betree: serializing interior node with a missing partition")
			}
			e.Buf = append(e.Buf, make([]byte, partSlotSize)...)
		}
		for _, p := range n.pivots {
			keyed(p)
		}
		for _, c := range n.children {
			e.U64(uint64(c))
		}
		filters = filterLens(n, len(e.Buf))
		for i, l := range filters {
			if l == 0 {
				continue
			}
			start := len(e.Buf)
			e.Buf = append(e.Buf, make([]byte, l)...)
			for _, m := range n.bufs[i].points {
				filterProbe(e.Buf[start:], m.Key, true)
			}
		}
		shellEnd = len(e.Buf)
		small = shellEnd
		for ci := range n.bufs {
			b := &n.bufs[ci]
			start := len(e.Buf)
			pageBytes, b.keyBytes = 0, 0
			for _, list := range [2][]*Msg{b.points, b.ranges} {
				for _, m := range list {
					b.keyBytes += len(m.Key) + len(m.EndKey)
					e.U8(uint8(m.Type))
					e.U64(uint64(m.MSN))
					keyed(m.Key)
					keyed(m.EndKey)
					e.U32(uint32(m.Off))
					encValue(m.Val)
				}
			}
			smallLen := len(e.Buf) - start
			small += smallLen
			if len(pages) > 0 {
				// Pack the small section against the aligned pages: the
				// pad goes in front of it, so the partition stays one
				// range.
				pad := alignedLen(len(e.Buf)) - len(e.Buf)
				e.Buf = append(e.Buf, make([]byte, pad)...)
				copy(e.Buf[start+pad:], e.Buf[start:start+smallLen])
				clear(e.Buf[start : start+pad])
				start += pad
				appendPages()
			}
			ps[ci].place(start, smallLen, start+smallLen, pageBytes, b.len())
		}
		e.Buf = append(e.Buf, make([]byte, alignedLen(len(e.Buf))-len(e.Buf))...)
	}
	buf = e.Buf

	// Checksums, each byte hashed once: the partitions' (written into the
	// directory, which the shell covers), then the shell's over the header
	// and directory, then the whole image's, which covers everything
	// after itself.
	sums := make([]uint32, len(ps))
	rest := partSums(buf, shellEnd, n.isLeaf(), ps, sums)
	for i, p := range ps {
		p.crc = sums[i]
		if n.isLeaf() {
			slot := buf[baseHeaderSize+i*dirSlotSize:]
			binary.BigEndian.PutUint32(slot, uint32(p.diskOff))
			binary.BigEndian.PutUint32(slot[4:], uint32(p.diskLen))
			binary.BigEndian.PutUint32(slot[8:], uint32(p.pageOff))
			binary.BigEndian.PutUint32(slot[12:], uint32(p.pageLen))
			binary.BigEndian.PutUint64(slot[16:], uint64(n.basements[i].maxApplied))
			binary.BigEndian.PutUint32(slot[24:], uint32(p.count))
			binary.BigEndian.PutUint32(slot[28:], p.crc)
		} else {
			slot := buf[baseHeaderSize+i*partSlotSize:]
			binary.BigEndian.PutUint32(slot, uint32(p.diskOff))
			binary.BigEndian.PutUint32(slot[4:], uint32(p.diskLen))
			binary.BigEndian.PutUint32(slot[8:], uint32(p.pageLen))
			binary.BigEndian.PutUint32(slot[12:], uint32(p.count))
			binary.BigEndian.PutUint32(slot[16:], uint32(n.bufs[i].keyBytes))
			binary.BigEndian.PutUint32(slot[20:], uint32(filters[i]))
			binary.BigEndian.PutUint32(slot[24:], p.crc)
		}
	}
	binary.BigEndian.PutUint32(buf[4:], nodeMagic)
	binary.BigEndian.PutUint32(buf[8:], uint32(n.height))
	binary.BigEndian.PutUint64(buf[12:], uint64(n.id))
	binary.BigEndian.PutUint32(buf[20:], uint32(len(buf)))
	binary.BigEndian.PutUint32(buf[24:], uint32(pb))
	binary.BigEndian.PutUint32(buf[28:], uint32(len(ps)))
	binary.BigEndian.PutUint32(buf[32:], uint32(shellEnd))
	sh := sumShell(buf, shellEnd)
	binary.BigEndian.PutUint32(buf[36:], sh.crc())
	binary.BigEndian.PutUint32(buf[0:], sh.image(buf, rest))

	env.Serialize(small)
	env.Checksum(len(buf))
	return buf
}

// place records where serialization put the partition.
func (p *part) place(off, smallLen, pageOff, pageLen, count int) {
	p.diskOff, p.diskLen, p.pageOff, p.pageLen, p.count = off, smallLen, pageOff, pageLen, count
}

// parts returns the node's partitions: a leaf's basements or an interior
// node's child buffers, in order.
func (n *node) parts() []*part {
	if n.isLeaf() {
		ps := make([]*part, len(n.basements))
		for i, b := range n.basements {
			ps[i] = &b.part
		}
		return ps
	}
	ps := make([]*part, len(n.bufs))
	for i := range n.bufs {
		ps[i] = &n.bufs[i].part
	}
	return ps
}

// partSums hashes the image bytes after the shell, data[shellEnd:], once.
// It returns their checksum and sets sums[i] to the checksum partition
// ps[i]'s directory slot holds when the partition is intact: over a
// basement's small section and then its page range, over an interior
// partition's one range. Every partition must lie inside data.
func partSums(data []byte, shellEnd int, leaf bool, ps []*part, sums []uint32) uint32 {
	rs := make([]span, 0, 2*len(ps))
	if leaf {
		// The small sections, then the page section.
		for _, p := range ps {
			rs = append(rs, span{p.diskOff, p.diskLen})
		}
		for _, p := range ps {
			rs = append(rs, span{p.pageOff, p.pageLen})
		}
	} else {
		for _, p := range ps {
			rs = append(rs, span{p.diskOff, p.diskLen + p.pageLen})
		}
	}
	got := make([]uint32, len(rs))
	rest := sumRanges(data, shellEnd, len(data), rs, got)
	for i, p := range ps {
		sums[i] = got[i]
		if leaf {
			sums[i] = crc32Combine(got[i], got[len(ps)+i], p.pageLen)
		}
	}
	return rest
}

// shellSums holds the checksums of the two hashed pieces of a shell: the
// header fields [4:36] and the directory and keys [40:end].
type shellSums struct {
	hdr, body uint32
	end       int
}

// sumShell hashes the pieces of the shell that ends at shellEnd.
func sumShell(data []byte, shellEnd int) shellSums {
	return shellSums{
		hdr:  crc32.ChecksumIEEE(data[4:36]),
		body: crc32.ChecksumIEEE(data[baseHeaderSize:shellEnd]),
		end:  shellEnd,
	}
}

// crc is the shell checksum: the header fields and the shell body,
// skipping the two crc fields themselves.
func (s shellSums) crc() uint32 {
	return crc32Combine(s.hdr, s.body, s.end-baseHeaderSize)
}

// image is the whole-image checksum over data[4:], given rest, the
// checksum of data[s.end:].
func (s shellSums) image(data []byte, rest uint32) uint32 {
	c := crc32Combine(s.hdr, crc32.ChecksumIEEE(data[36:baseHeaderSize]), 4)
	c = crc32Combine(c, s.body, s.end-baseHeaderSize)
	return crc32Combine(c, rest, len(data)-s.end)
}

// encodedSizeBound bounds serializeNode's output for n from above, so the
// encoder allocates its buffer once. It counts the encoding below exactly,
// except that each alignment pad is taken as a whole block: the leaf's page
// section and the image's end, and in an interior node the pad in front of
// each partition that has pages.
func encodedSizeBound(cfg *Config, n *node) int {
	aligned := func(v Value) bool { return cfg.PageSharing && v.Len() >= alignedValueMin }
	value := func(v Value) int {
		if aligned(v) {
			return 9 + alignedLen(v.Len())
		}
		return 5 + v.Len()
	}
	size := baseHeaderSize + 2*blockAlign
	for _, b := range n.basements {
		lift := len(b.prefix())
		size += dirSlotSize + 2 + len(b.lowKey()) + 4 + 2 + lift
		for _, en := range b.entries {
			size += 2 + len(en.key) - lift + value(en.val)
		}
	}
	for _, p := range n.pivots {
		size += 2 + len(p)
	}
	size += (partSlotSize + 8) * len(n.children)
	for i := range n.bufs {
		size += (filterBitsPerKey*len(n.bufs[i].points) + 7) / 8
		paged := false
		for _, list := range [2][]*Msg{n.bufs[i].points, n.bufs[i].ranges} {
			for _, m := range list {
				size += 1 + 8 + 2 + len(m.Key) + 2 + len(m.EndKey) + 4 + value(m.Val)
				paged = paged || aligned(m.Val)
			}
		}
		if paged {
			size += blockAlign
		}
	}
	return size
}

// nodeDecoder reads a node image through a bounds-checked codec.Decoder,
// whose first failed read latches an error that each decode checks and
// reports as ErrChecksum. Keys are copied into one arena per shell,
// basement or child buffer; values borrow the image (value).
type nodeDecoder struct {
	codec.Decoder
	// keys is the arena decoded keys are carved from, sized before the
	// decode (by a first pass over a basement's entries, or by a child
	// buffer's directory slot) so that decoding allocates it once.
	keys []byte
	// img is the pooled image data lives in, and borrowed counts the
	// values that borrow it; the decode's caller credits them to img.refs
	// once the decode succeeds. With img nil, values alias data without a
	// borrow, and the caller keeps data unchanged for as long as the node
	// lives.
	img      *image
	borrowed int32
}

// keyed decodes a length-prefixed key into the arena.
func (d *nodeDecoder) keyed() []byte { return d.key(nil, d.Take(int(d.U16()))) }

// key appends prefix and suffix to the arena as one key. The full-slice
// expression caps the key at its length, so appending to one key
// reallocates instead of overwriting the next.
func (d *nodeDecoder) key(prefix, suffix []byte) []byte {
	start := len(d.keys)
	d.keys = append(append(d.keys, prefix...), suffix...)
	return d.keys[start:len(d.keys):len(d.keys)]
}

// skipKeyed steps over a length-prefixed key, returning its length.
func (d *nodeDecoder) skipKeyed() int {
	n := int(d.U16())
	d.Take(n)
	return n
}

// skipValue steps over one encoded value (see value).
func (d *nodeDecoder) skipValue() {
	aligned := d.Bool()
	n := int(d.U32())
	if aligned {
		d.U32()
	} else {
		d.Take(n)
	}
}

// value decodes one encoded value, borrowing its bytes from the image
// rather than copying them. An aligned value's payload is read from pages
// at pageBase plus its recorded offset: for a basement, pages is its page
// range and pageBase the leaf's page-section base shifted to match; for an
// interior partition, pages is its page range and pageBase 0. A payload
// outside pages is ErrChecksum. Values are capped at their length like
// keys. An empty value borrows nothing.
func (d *nodeDecoder) value(pages []byte, pageBase int) (Value, error) {
	aligned := d.Bool()
	n := int(d.U32())
	var b []byte
	if aligned {
		off := pageBase + int(d.U32())
		if off < 0 || off > len(pages) || n > len(pages)-off {
			return Value{}, fmt.Errorf("betree: %d-byte aligned value at %d of a %d-byte page range: %w", n, off, len(pages), ErrChecksum)
		}
		b = pages[off : off+n : off+n]
	} else {
		b = d.Take(n)
	}
	if n == 0 || d.img == nil {
		return InlineValue(b), nil
	}
	d.borrowed++
	return Value{data: b, hold: d.img}, nil
}

// lend credits the decode's borrows to its image.
func (d *nodeDecoder) lend() {
	if d.borrowed > 0 {
		d.img.refs.Add(d.borrowed)
	}
}

// deserializeNode decodes a full node image, charging CPU costs and
// verifying every checksum it carries: the shell's, the whole image's and
// each partition's. The node's values borrow img, the pooled image data
// lives in (nil: they alias data unaccounted). On an error the image may
// carry borrows of the discarded node, which the caller voids.
func deserializeNode(env *sim.Env, data []byte, img *image) (*node, error) {
	if len(data) < baseHeaderSize {
		return nil, fmt.Errorf("betree: short node: %w", ErrChecksum)
	}
	if binary.BigEndian.Uint32(data[4:]) != nodeMagic {
		return nil, fmt.Errorf("betree: bad node magic: %w", ErrChecksum)
	}
	total := int(binary.BigEndian.Uint32(data[20:]))
	if total < baseHeaderSize || total > len(data) {
		return nil, fmt.Errorf("betree: truncated node: want %d have %d: %w", total, len(data), ErrChecksum)
	}
	data = data[:total]
	env.Checksum(len(data))
	// The shell checks every partition's span against the header's total,
	// which is len(data).
	n, sh, err := decodeShell(data)
	if err != nil {
		return nil, err
	}
	ps := n.parts()
	sums := make([]uint32, len(ps))
	if sh.image(data, partSums(data, sh.end, n.isLeaf(), ps, sums)) != binary.BigEndian.Uint32(data[0:]) {
		return nil, fmt.Errorf("betree: node image: %w", ErrChecksum)
	}
	read := 0
	for i, p := range ps {
		small, pages := data[p.diskOff:p.diskOff+p.diskLen], data[p.pageOff:p.pageOff+p.pageLen]
		if n.isLeaf() {
			err = decodeBasement(small, pages, n.basements[i], n.pageBase, img, sums[i])
		} else {
			err = decodePartition(small, pages, &n.bufs[i], img, sums[i])
		}
		if err != nil {
			return nil, err
		}
		read += p.diskLen
	}
	if !n.isLeaf() {
		read += sh.end
	}
	env.Serialize(read)
	return n, nil
}

// decodeShell parses the shell at the head of a node image, data: the
// whole image or the header region a partial read fetched. It returns the
// node with every partition still on disk — a leaf's basements unloaded,
// an interior node's child buffers missing (partial-read support, §2.2) —
// and the checksums of the shell's pieces. The shell checksum is verified
// before the directory is trusted, and every partition must lie inside the
// header's total length: a torn or corrupted header region surfaces
// ErrChecksum instead of garbage extents. A leaf's basements come from one
// slab, and its first keys, or an interior node's pivots, from one arena;
// nothing aliases data.
func decodeShell(data []byte) (*node, shellSums, error) {
	if len(data) < baseHeaderSize || binary.BigEndian.Uint32(data[4:]) != nodeMagic {
		return nil, shellSums{}, fmt.Errorf("betree: %d bytes with no node header: %w", len(data), ErrChecksum)
	}
	n := &node{
		height: int(binary.BigEndian.Uint32(data[8:])),
		id:     nodeID(binary.BigEndian.Uint64(data[12:])),
	}
	shellEnd := int(binary.BigEndian.Uint32(data[32:]))
	count := int(binary.BigEndian.Uint32(data[28:]))
	// A basement costs at least its slot; a child its slot and its ID.
	slot, least := dirSlotSize, 0
	if !n.isLeaf() {
		slot, least = partSlotSize+8, 1
	}
	if shellEnd < baseHeaderSize || shellEnd > len(data) || count < least || count > (shellEnd-baseHeaderSize)/slot {
		// A directory past the bytes given is not necessarily corrupt: it
		// may exceed the header-region read, and a partial read falls back
		// to a full read on any error, whose whole-image checksum decides.
		return nil, shellSums{}, fmt.Errorf("betree: %d-partition shell ends at %d of %d bytes: %w", count, shellEnd, len(data), ErrChecksum)
	}
	sh := sumShell(data, shellEnd)
	if sh.crc() != binary.BigEndian.Uint32(data[36:]) {
		return nil, sh, fmt.Errorf("betree: node shell: %w", ErrChecksum)
	}
	total := int64(binary.BigEndian.Uint32(data[20:]))
	// The keys are read from the checksummed shell only.
	d := &nodeDecoder{Decoder: codec.NewDecoder(data[:shellEnd])}
	d.Take(baseHeaderSize)
	var err error
	if n.isLeaf() {
		n.pageBase = pageBase(data)
		n.basements, err = d.basementDirectory(count, total)
	} else {
		err = d.childDirectory(n, count, total)
	}
	if err != nil {
		return nil, sh, err
	}
	return n, sh, nil
}

// basementDirectory decodes a leaf shell's count directory slots and first
// keys into unloaded basements.
func (d *nodeDecoder) basementDirectory(count int, total int64) ([]*basement, error) {
	slab := make([]basement, count)
	basements := make([]*basement, count)
	for i := range slab {
		b := &slab[i]
		b.diskOff = int(d.U32())
		b.diskLen = int(d.U32())
		b.pageOff = int(d.U32())
		b.pageLen = int(d.U32())
		b.maxApplied = MSN(d.U64())
		b.count = int(d.U32())
		b.crc = d.U32()
		if err := b.checkSpan(total); err != nil {
			return nil, err
		}
		basements[i] = b
	}
	keyBytes := 0
	w := *d
	for i := 0; i < count; i++ {
		keyBytes += w.skipKeyed()
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("betree: leaf shell first keys: %w: %w", ErrChecksum, err)
	}
	d.keys = make([]byte, 0, keyBytes)
	for _, b := range basements {
		b.firstKey = d.keyed()
	}
	return basements, nil
}

// childDirectory decodes an interior shell's count directory slots, its
// pivots, its child IDs and its key filters into n, each child buffer
// missing. The shell must hold exactly those.
func (d *nodeDecoder) childDirectory(n *node, count int, total int64) error {
	n.bufs = make([]buffer, count)
	filterLen := make([]int, count)
	for i := range n.bufs {
		b := &n.bufs[i]
		b.missing = true
		b.diskOff = int(d.U32())
		b.diskLen = int(d.U32())
		b.pageOff = b.diskOff + b.diskLen
		b.pageLen = int(d.U32())
		b.count = int(d.U32())
		b.keyBytes = int(d.U32())
		filterLen[i] = int(d.U32())
		b.crc = d.U32()
		if err := b.within(total); err != nil {
			return err
		}
	}
	keyBytes := 0
	w := *d
	for i := 0; i < count-1; i++ {
		keyBytes += w.skipKeyed()
	}
	w.Take(8 * count)
	for _, l := range filterLen {
		keyBytes += len(w.Take(l))
	}
	if err := w.Done(); err != nil {
		return fmt.Errorf("betree: node %d: interior shell: %w: %w", n.id, ErrChecksum, err)
	}
	// The filters share the pivots' arena.
	d.keys = make([]byte, 0, keyBytes)
	n.pivots = make([][]byte, count-1)
	for i := range n.pivots {
		n.pivots[i] = d.keyed()
	}
	n.children = make([]nodeID, count)
	for i := range n.children {
		n.children[i] = nodeID(d.U64())
	}
	for i, l := range filterLen {
		n.bufs[i].filter = d.key(nil, d.Take(l))
	}
	return nil
}

// filterLens returns the length of the key filter of each of interior node
// n's child buffers, for a shell of base bytes before the filters:
// filterBitsPerKey bits per point message, fewer when the filters would
// push the shell past headerRegion, and none at all below four bits, or
// for a buffer holding a range delete, which may cover any key.
func filterLens(n *node, base int) []int {
	points := 0
	for i := range n.bufs {
		if len(n.bufs[i].ranges) == 0 {
			points += len(n.bufs[i].points)
		}
	}
	bits := filterBitsPerKey
	if room := (headerRegion - base) * 8; points*bits > room {
		bits = max(room, 0) / max(points, 1)
	}
	lens := make([]int, len(n.bufs))
	for i := range n.bufs {
		if b := &n.bufs[i]; bits >= 4 && len(b.ranges) == 0 {
			lens[i] = (bits*len(b.points) + 7) / 8
		}
	}
	return lens
}

// filterProbes is how many bits of its buffer's filter a key sets.
const filterProbes = 3

// filterProbe sets key's bits in filter f (set), or reports whether they
// are all set. The bits come from a 64-bit FNV-1a hash of the key, which
// is fixed because filters are stored in node images.
func filterProbe(f, key []byte, set bool) bool {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h1, h2, n := uint32(h), uint32(h>>32)|1, uint32(len(f))*8
	for i := uint32(0); i < filterProbes; i++ {
		bit := (h1 + i*h2) % n
		if set {
			f[bit/8] |= 1 << (bit % 8)
		} else if f[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// decodePartition materializes child buffer b of an interior node from its
// partition: small, its small section, and pages, its page range, against
// which aligned values resolve. crc, the checksum of the two, is compared
// with the directory's before anything is decoded. The messages come from
// one slab and their keys from one arena, sized by the directory's message
// count and key bytes, each bounded by the section's length; values borrow
// img (see nodeDecoder) and are credited to it only when the whole
// partition decodes. A partition that beat its checksum but is malformed —
// a count or length running past it, bytes or key bytes left over or
// missing, an unknown message type, a delete carrying a value, messages
// out of index order — surfaces ErrChecksum instead of a misordered index,
// and leaves b missing and holding no messages.
func decodePartition(small, pages []byte, b *buffer, img *image, crc uint32) (err error) {
	if !b.missing {
		return nil
	}
	if crc != b.crc {
		return fmt.Errorf("betree: partition at %d: %w", b.diskOff, ErrChecksum)
	}
	defer func() {
		if err != nil {
			b.points, b.ranges, b.bytes = nil, nil, 0
		}
	}()
	k := b.count
	if k > len(small)/minMsgSize || b.keyBytes > len(small) {
		return fmt.Errorf("betree: partition at %d: %d messages, %d key bytes in %d bytes: %w", b.diskOff, k, b.keyBytes, len(small), ErrChecksum)
	}
	d := &nodeDecoder{Decoder: codec.NewDecoder(small), img: img}
	d.keys = make([]byte, 0, b.keyBytes)
	slab := make([]Msg, k)
	b.points = make([]*Msg, 0, k)
	for i := range slab {
		m := &slab[i]
		m.Type = MsgType(d.U8())
		m.MSN = MSN(d.U64())
		m.Key = d.keyed()
		m.EndKey = d.keyed()
		off := d.U32()
		if m.Val, err = d.value(pages, 0); err != nil {
			return err
		}
		if m.Type < MsgInsert || m.Type > MsgRangeDelete {
			return fmt.Errorf("betree: partition at %d: message type %d: %w", b.diskOff, m.Type, ErrChecksum)
		}
		if off > math.MaxInt32 {
			return fmt.Errorf("betree: partition at %d: update offset %d: %w", b.diskOff, off, ErrChecksum)
		}
		m.Off = int32(off)
		if (m.Type == MsgDelete || m.Type == MsgRangeDelete) && m.Val.Len() > 0 {
			return fmt.Errorf("betree: partition at %d: %v message with a value: %w", b.diskOff, m.Type, ErrChecksum)
		}
		if !b.appendDecoded(m) {
			return fmt.Errorf("betree: partition at %d: out of index order: %w", b.diskOff, ErrChecksum)
		}
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("betree: partition at %d: %w: %w", b.diskOff, ErrChecksum, err)
	}
	if len(d.keys) != b.keyBytes {
		return fmt.Errorf("betree: partition at %d: %d key bytes, directory says %d: %w", b.diskOff, len(d.keys), b.keyBytes, ErrChecksum)
	}
	d.lend()
	b.missing, b.clean = false, true
	return nil
}

// pageBase extracts the page-section base offset from a node image header.
func pageBase(data []byte) int {
	return int(binary.BigEndian.Uint32(data[24:]))
}

// within reports ErrChecksum unless p's small section and page range lie
// inside a node image of total bytes. The shell checks each span against
// its header's total; a partial read checks again against the extent it
// reads from.
func (p *part) within(total int64) error {
	if p.diskOff < baseHeaderSize || p.diskLen < 0 || int64(p.diskOff)+int64(p.diskLen) > total {
		return fmt.Errorf("betree: partition small section out of bounds: %w", ErrChecksum)
	}
	if p.pageOff < 0 || p.pageLen < 0 || int64(p.pageOff)+int64(p.pageLen) > total {
		return fmt.Errorf("betree: partition page range out of bounds: %w", ErrChecksum)
	}
	return nil
}

// checkSpan is within for a basement, whose small section holds at least
// its 4-byte entry count.
func (b *basement) checkSpan(total int64) error {
	if b.diskLen < 4 {
		return fmt.Errorf("betree: %d-byte basement small section: %w", b.diskLen, ErrChecksum)
	}
	return b.within(total)
}

// decodeBasement materializes basement b from its two on-disk pieces:
// small, its small section, and pages, its page range (which begins at
// node offset b.pageOff). pb is the node's page-section base offset, taken
// from the checksum-verified header. crc, the checksum of the two pieces,
// is compared with the basement's directory checksum before decoding, so a
// basement-granular read of a torn or corrupted node surfaces ErrChecksum.
// Keys are copied into one arena; values borrow small and pages, which lie
// in img (see nodeDecoder), and are credited to it only when the whole
// basement decodes. A failed decode leaves b unloaded and holding no
// entries.
func decodeBasement(small, pages []byte, b *basement, pb int, img *image, crc uint32) (err error) {
	if b.loaded {
		return nil
	}
	defer func() {
		if err != nil {
			b.entries = nil
		}
	}()
	if crc != b.crc {
		return fmt.Errorf("betree: basement at %d: %w", b.diskOff, ErrChecksum)
	}
	d := &nodeDecoder{Decoder: codec.NewDecoder(small), img: img}
	nEntries := int(d.U32())
	prefix := d.Take(int(d.U16()))
	if nEntries > d.Len()/minEntrySize {
		return fmt.Errorf("betree: basement at %d: %d entries in %d bytes: %w", b.diskOff, nEntries, d.Len(), ErrChecksum)
	}
	// First pass: the key bytes the entries decode to. Nothing is sized
	// from them unless every read it made was in bounds.
	suffixes := 0
	w := *d
	for i := 0; i < nEntries; i++ {
		suffixes += w.skipKeyed()
		w.skipValue()
	}
	if err := w.Err(); err != nil {
		return fmt.Errorf("betree: basement at %d: %w: %w", b.diskOff, ErrChecksum, err)
	}
	d.keys = make([]byte, 0, nEntries*len(prefix)+suffixes)
	b.entries = make([]entry, nEntries)
	for i := range b.entries {
		k := d.key(prefix, d.Take(int(d.U16())))
		if len(k) > math.MaxUint16 {
			return fmt.Errorf("betree: basement at %d: entry %d has a %d-byte key: %w", b.diskOff, i, len(k), ErrChecksum)
		}
		if i > 0 && keylen.Compare(b.entries[i-1].key, k) >= 0 {
			return fmt.Errorf("betree: basement at %d: entry %d out of order: %w", b.diskOff, i, ErrChecksum)
		}
		v, err := d.value(pages, pb-b.pageOff)
		if err != nil {
			return fmt.Errorf("betree: basement at %d: entry %d: %w", b.diskOff, i, err)
		}
		b.entries[i] = entry{key: k, val: v}
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("betree: basement at %d: %w: %w", b.diskOff, ErrChecksum, err)
	}
	d.lend()
	b.loaded, b.clean = true, true
	b.bytes = b.entryBytes()
	return nil
}

// prefix returns the leading key bytes all of b's entries share, which
// serialization stores once and strips from every key (§2.2 lifting).
func (b *basement) prefix() []byte {
	if len(b.entries) < 2 {
		return nil
	}
	first := b.entries[0].key
	return first[:keylen.CommonPrefix(first, b.entries[len(b.entries)-1].key)]
}

// headerRegion is how many leading bytes of a node image a partial read
// fetches to parse the shell.
const headerRegion = 16 << 10
