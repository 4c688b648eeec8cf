package betree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

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
//	[24:28] page-section base offset (aligned value payloads)
//	[28:32] child/basement count
//	[32:36] shell end (header + basement directory + first keys)
//	[36:40] crc32 over [4:36] ++ [40:shellEnd] (shell checksum)
//
// Leaves follow with a basement directory; each basement has a small
// section (keys + small values) and, in the page-sharing format (§6), a
// separate 4 KiB-aligned page section at the tail of the node so that file
// blocks land in aligned buffers and can be written scatter-gather without
// a serialization copy. Interior nodes follow with pivots, child IDs, and
// per-child message buffers (page-valued insert messages use the same
// aligned tail).
//
// Checksums come in three granularities so every read path is verified
// (fault model, DESIGN.md): the whole-image crc covers full node reads;
// the shell crc covers the header-region read of a partial leaf read; and
// each basement directory slot carries a crc over that basement's small
// section and page range, covering basement-granular reads. A torn node
// write therefore cannot yield a silently wrong partial read: either the
// shell crc or the basement crc fails and the read surfaces ErrChecksum.
const (
	nodeMagic      = 0xbe72ee02
	baseHeaderSize = 40
	// dirSlotSize is the size of one basement directory slot.
	dirSlotSize = 32
	// alignedValueMin is the value size at or above which the aligned
	// page section is used (when page sharing is on).
	alignedValueMin = 2048
)

type nodeEncoder struct {
	buf []byte
	// smallBytes counts bytes that required CPU serialization work;
	// aligned page payloads are excluded under page sharing.
	smallBytes int
}

func (e *nodeEncoder) u8(v uint8) { e.buf = append(e.buf, v); e.smallBytes++ }
func (e *nodeEncoder) u16(v uint16) {
	var t [2]byte
	binary.BigEndian.PutUint16(t[:], v)
	e.buf = append(e.buf, t[:]...)
	e.smallBytes += 2
}
func (e *nodeEncoder) u32(v uint32) {
	var t [4]byte
	binary.BigEndian.PutUint32(t[:], v)
	e.buf = append(e.buf, t[:]...)
	e.smallBytes += 4
}
func (e *nodeEncoder) u64(v uint64) {
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], v)
	e.buf = append(e.buf, t[:]...)
	e.smallBytes += 8
}
func (e *nodeEncoder) bytes(b []byte) {
	e.buf = append(e.buf, b...)
	e.smallBytes += len(b)
}
func (e *nodeEncoder) keyed(b []byte) { e.u16(uint16(len(b))); e.bytes(b) }

// serializeNode encodes n into buf, charging serialization and checksum
// CPU costs, and returns the image. buf is written from its start; when its
// capacity is at least encodedSizeBound(cfg, n) the image is buf's own
// memory, otherwise (nil, say) a buffer of that bound is allocated.
// Returned bytes are 4 KiB-aligned in length.
func serializeNode(env *sim.Env, cfg *Config, n *node, buf []byte) []byte {
	if bound := encodedSizeBound(cfg, n); cap(buf) < bound {
		buf = make([]byte, 0, bound)
	}
	e := &nodeEncoder{buf: buf[:0]}
	// Header placeholder; patched at the end.
	e.buf = append(e.buf, make([]byte, baseHeaderSize)...)
	e.smallBytes += baseHeaderSize

	var pages [][]byte // aligned payloads appended at the tail
	pageBytes := 0
	addPage := func(v Value) (off uint32) {
		b := v.Bytes()
		pages = append(pages, b)
		off = uint32(pageBytes)
		pageBytes += (len(b) + blockAlign - 1) &^ (blockAlign - 1)
		return off
	}
	useAligned := func(v Value) bool {
		return cfg.PageSharing && v.Len() >= alignedValueMin
	}
	encValue := func(v Value) {
		if useAligned(v) {
			e.u8(1)
			e.u32(uint32(v.Len()))
			e.u32(addPage(v))
		} else {
			e.u8(0)
			e.u32(uint32(v.Len()))
			e.bytes(v.Bytes())
		}
	}

	shellEnd := baseHeaderSize
	if n.isLeaf() {
		// Basement directory placeholder: fixed-size slots, then
		// variable first keys after the slots.
		dirStart := len(e.buf)
		for _, b := range n.basements {
			if !b.loaded {
				panic("betree: serializing leaf with unloaded basement")
			}
			_ = b
			e.buf = append(e.buf, make([]byte, dirSlotSize)...)
			e.smallBytes += dirSlotSize
		}
		for _, b := range n.basements {
			e.keyed(b.lowKey())
		}
		shellEnd = len(e.buf)
		// Basement small sections. With lifting (§2.2), the longest
		// common prefix of a basement's keys is stored once and
		// stripped from every key — very effective for full-path keys.
		type bloc struct{ smallOff, smallLen, pageOff, pageLen int }
		locs := make([]bloc, len(n.basements))
		for bi, b := range n.basements {
			start := len(e.buf)
			pstart := pageBytes
			e.u32(uint32(len(b.entries)))
			prefix := b.prefix()
			e.keyed(prefix)
			for i := range b.entries {
				e.keyed(b.entries[i].key[len(prefix):])
				encValue(b.entries[i].val)
			}
			locs[bi] = bloc{smallOff: start, smallLen: len(e.buf) - start, pageOff: pstart, pageLen: pageBytes - pstart}
		}
		// Page section begins at the next aligned boundary.
		pageBase := (len(e.buf) + blockAlign - 1) &^ (blockAlign - 1)
		e.buf = append(e.buf, make([]byte, pageBase-len(e.buf))...)
		for _, p := range pages {
			e.buf = append(e.buf, p...)
			if pad := (blockAlign - len(p)%blockAlign) % blockAlign; pad > 0 {
				e.buf = append(e.buf, make([]byte, pad)...)
			}
		}
		// Patch the directory, including each basement's checksum over
		// its small section and page range (verified by basement-granular
		// partial reads).
		for bi := range n.basements {
			slot := dirStart + bi*dirSlotSize
			loc := locs[bi]
			binary.BigEndian.PutUint32(e.buf[slot:], uint32(loc.smallOff))
			binary.BigEndian.PutUint32(e.buf[slot+4:], uint32(loc.smallLen))
			binary.BigEndian.PutUint32(e.buf[slot+8:], uint32(pageBase+loc.pageOff))
			binary.BigEndian.PutUint32(e.buf[slot+12:], uint32(loc.pageLen))
			binary.BigEndian.PutUint64(e.buf[slot+16:], uint64(n.basements[bi].maxApplied))
			binary.BigEndian.PutUint32(e.buf[slot+24:], uint32(len(n.basements[bi].entries)))
			crc := crc32.ChecksumIEEE(e.buf[loc.smallOff : loc.smallOff+loc.smallLen])
			if loc.pageLen > 0 {
				crc = crc32.Update(crc, crc32.IEEETable, e.buf[pageBase+loc.pageOff:pageBase+loc.pageOff+loc.pageLen])
			}
			binary.BigEndian.PutUint32(e.buf[slot+28:], crc)
		}
		patchHeader(e.buf, n, pageBase, len(n.basements))
	} else {
		e.u32(uint32(len(n.children)))
		for _, p := range n.pivots {
			e.keyed(p)
		}
		for _, c := range n.children {
			e.u64(uint64(c))
		}
		// Each buffer is stored in index order, point messages first, so
		// decoding rebuilds the index in one pass.
		for ci := range n.bufs {
			b := &n.bufs[ci]
			e.u32(uint32(b.len()))
			for _, list := range [2][]*Msg{b.points, b.ranges} {
				for _, m := range list {
					e.u8(uint8(m.Type))
					e.u64(uint64(m.MSN))
					e.keyed(m.Key)
					e.keyed(m.EndKey)
					e.u32(uint32(m.Off))
					encValue(m.Val)
				}
			}
		}
		// Page section for by-ref message values.
		pageBase := (len(e.buf) + blockAlign - 1) &^ (blockAlign - 1)
		e.buf = append(e.buf, make([]byte, pageBase-len(e.buf))...)
		for _, p := range pages {
			e.buf = append(e.buf, p...)
			if pad := (blockAlign - len(p)%blockAlign) % blockAlign; pad > 0 {
				e.buf = append(e.buf, make([]byte, pad)...)
			}
		}
		patchHeader(e.buf, n, pageBase, len(n.children))
	}

	// Align total length, then patch the length-dependent header fields
	// and checksums: the shell crc covers the header (minus the two crc
	// fields) and the directory + first keys, so it must be computed
	// after the total length and shell end are in place; the whole-image
	// crc goes last, covering everything after itself.
	if pad := (blockAlign - len(e.buf)%blockAlign) % blockAlign; pad > 0 {
		e.buf = append(e.buf, make([]byte, pad)...)
	}
	binary.BigEndian.PutUint32(e.buf[20:], uint32(len(e.buf)))
	binary.BigEndian.PutUint32(e.buf[32:], uint32(shellEnd))
	binary.BigEndian.PutUint32(e.buf[36:], shellCRC(e.buf, shellEnd))
	crc := crc32.ChecksumIEEE(e.buf[4:])
	binary.BigEndian.PutUint32(e.buf[0:], crc)

	env.Serialize(e.smallBytes)
	env.Checksum(len(e.buf))
	return e.buf
}

// encodedSizeBound bounds serializeNode's output for n from above, so the
// encoder allocates its buffer once. It counts the encoding below exactly,
// except that each of the two alignment pads is taken as a whole block.
func encodedSizeBound(cfg *Config, n *node) int {
	value := func(v Value) int {
		if cfg.PageSharing && v.Len() >= alignedValueMin {
			return 9 + ((v.Len() + blockAlign - 1) &^ (blockAlign - 1))
		}
		return 5 + v.Len()
	}
	size := baseHeaderSize + 4 + 2*blockAlign
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
	size += 8 * len(n.children)
	for i := range n.bufs {
		size += 4
		for _, list := range [2][]*Msg{n.bufs[i].points, n.bufs[i].ranges} {
			for _, m := range list {
				size += 1 + 8 + 2 + len(m.Key) + 2 + len(m.EndKey) + 4 + value(m.Val)
			}
		}
	}
	return size
}

// shellCRC computes the shell checksum: header fields [4:36] plus the
// basement directory and first keys [40:shellEnd], skipping the two crc
// fields themselves.
func shellCRC(buf []byte, shellEnd int) uint32 {
	crc := crc32.ChecksumIEEE(buf[4:36])
	return crc32.Update(crc, crc32.IEEETable, buf[baseHeaderSize:shellEnd])
}

func patchHeader(buf []byte, n *node, headerEnd, count int) {
	binary.BigEndian.PutUint32(buf[4:], nodeMagic)
	binary.BigEndian.PutUint32(buf[8:], uint32(n.height))
	binary.BigEndian.PutUint64(buf[12:], uint64(n.id))
	binary.BigEndian.PutUint32(buf[24:], uint32(headerEnd))
	binary.BigEndian.PutUint32(buf[28:], uint32(count))
}

// nodeDecoder reads a node image. Keys are copied into one arena per node
// or basement; values borrow the image (value).
type nodeDecoder struct {
	data []byte
	pos  int
	// keys is the arena decoded keys are carved from, sized by a first
	// pass over the entries so that decoding allocates it once.
	keys []byte
	// img is the pooled image data lives in, and borrowed counts the
	// values that borrow it; the decode's caller credits them to img.refs
	// once the decode succeeds. With img nil, values alias data without a
	// borrow, and the caller keeps data unchanged for as long as the node
	// lives.
	img      *image
	borrowed int32
}

func (d *nodeDecoder) u8() uint8 { v := d.data[d.pos]; d.pos++; return v }
func (d *nodeDecoder) u16() uint16 {
	v := binary.BigEndian.Uint16(d.data[d.pos:])
	d.pos += 2
	return v
}
func (d *nodeDecoder) u32() uint32 {
	v := binary.BigEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v
}
func (d *nodeDecoder) u64() uint64 {
	v := binary.BigEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return v
}

// take returns the next n bytes of the image, in place.
func (d *nodeDecoder) take(n int) []byte {
	b := d.data[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b
}

// keyed decodes a length-prefixed key into the arena.
func (d *nodeDecoder) keyed() []byte { return d.key(nil, d.take(int(d.u16()))) }

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
	n := int(d.u16())
	d.take(n)
	return n
}

// skipValue steps over one encoded value (see value).
func (d *nodeDecoder) skipValue() {
	aligned := d.u8() == 1
	n := int(d.u32())
	if aligned {
		d.u32()
	} else {
		d.take(n)
	}
}

// value decodes one encoded value, borrowing its bytes from the image
// rather than copying them. An aligned value's payload is read from pages
// at pageBase plus its recorded offset: for a full image, pages is the
// image and pageBase the header's page-section base; for a basement,
// pages is its page range and pageBase is shifted to match. Values are
// capped at their length like keys. An empty value borrows nothing.
func (d *nodeDecoder) value(pages []byte, pageBase int) Value {
	aligned := d.u8() == 1
	n := int(d.u32())
	var b []byte
	if aligned {
		off := pageBase + int(d.u32())
		b = pages[off : off+n : off+n]
	} else {
		b = d.take(n)
	}
	if n == 0 || d.img == nil {
		return InlineValue(b)
	}
	d.borrowed++
	return Value{data: b, hold: d.img}
}

// lend credits the decode's borrows to its image.
func (d *nodeDecoder) lend() {
	if d.borrowed > 0 {
		d.img.refs.Add(d.borrowed)
	}
}

// deserializeNode decodes a full node image, charging CPU costs and
// verifying the header checksum. The node's values borrow img, the pooled
// image data lives in (nil: they alias data unaccounted). On an error the
// image may carry borrows of the discarded node, which the caller voids.
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
	if crc32.ChecksumIEEE(data[4:]) != binary.BigEndian.Uint32(data[0:]) {
		return nil, fmt.Errorf("betree: node image: %w", ErrChecksum)
	}
	n := &node{
		height: int(binary.BigEndian.Uint32(data[8:])),
		id:     nodeID(binary.BigEndian.Uint64(data[12:])),
	}
	count := int(binary.BigEndian.Uint32(data[28:]))
	if n.height == 0 {
		shell, _, err := decodeLeafShell(data)
		if err != nil {
			return nil, err
		}
		n.basements = shell
		n.pageBase = pageBase(data)
		for _, b := range n.basements {
			if err := b.checkSpan(int64(len(data))); err != nil {
				return nil, err
			}
			if err := decodeBasement(data[b.diskOff:b.diskOff+b.diskLen], data[b.pageOff:b.pageOff+b.pageLen], b, n.pageBase, img); err != nil {
				return nil, err
			}
		}
		env.Serialize(smallSpan(n.basements))
		return n, nil
	}
	read, err := decodeInterior(n, data, count, img)
	if err != nil {
		return nil, err
	}
	env.Serialize(read)
	return n, nil
}

// decodeInterior decodes an interior node's pivots, children and message
// buffers from a checksum-verified image, returning the bytes it read.
// The messages come from one slab and their keys from one arena, each
// sized by a first pass over the buffers. An image that beat its checksum
// but is malformed — a count or length running past the image, an unknown
// message type, a delete carrying a value, a buffer out of index order —
// surfaces ErrChecksum instead of a panic or a misordered index.
func decodeInterior(n *node, data []byte, count int, img *image) (read int, err error) {
	defer func() {
		if recover() != nil {
			read, err = 0, fmt.Errorf("betree: truncated interior node: %w", ErrChecksum)
		}
	}()
	d := &nodeDecoder{data: data, pos: baseHeaderSize, img: img}
	if got := int(d.u32()); got != count || count < 1 || count > len(data)/12 {
		return 0, fmt.Errorf("betree: bad child count %d: %w", count, ErrChecksum)
	}
	// First pass: count the messages and key bytes. It panics on a
	// truncated image before anything is sized from its counts.
	msgs, keyBytes := 0, 0
	w := *d
	for i := 0; i < count-1; i++ {
		keyBytes += w.skipKeyed()
	}
	w.take(8 * count)
	for ci := 0; ci < count; ci++ {
		k := int(w.u32())
		for i := 0; i < k; i++ {
			w.take(9)
			keyBytes += w.skipKeyed() + w.skipKeyed()
			w.u32()
			w.skipValue()
		}
		msgs += k
	}

	d.keys = make([]byte, 0, keyBytes)
	n.pivots = make([][]byte, count-1)
	for i := range n.pivots {
		n.pivots[i] = d.keyed()
	}
	n.children = make([]nodeID, count)
	for i := range n.children {
		n.children[i] = nodeID(d.u64())
	}
	n.bufs = make([]buffer, count)
	slab := make([]Msg, msgs)
	index := make([]*Msg, msgs)
	pb := pageBase(data)
	for ci := range n.bufs {
		k := int(d.u32())
		b := &n.bufs[ci]
		// Point messages index into this buffer's share of the slab's
		// pointers, capped so an insert cannot spill into the next share.
		b.points = index[:0:k]
		index = index[k:]
		for i := 0; i < k; i++ {
			m := &slab[0]
			slab = slab[1:]
			m.Type = MsgType(d.u8())
			m.MSN = MSN(d.u64())
			m.Key = d.keyed()
			m.EndKey = d.keyed()
			m.Off = int(d.u32())
			m.Val = d.value(data, pb)
			if m.Type < MsgInsert || m.Type > MsgRangeDelete {
				return 0, fmt.Errorf("betree: node %d: message type %d: %w", n.id, m.Type, ErrChecksum)
			}
			if (m.Type == MsgDelete || m.Type == MsgRangeDelete) && m.Val.Len() > 0 {
				return 0, fmt.Errorf("betree: node %d: %v message with a value: %w", n.id, m.Type, ErrChecksum)
			}
			if !b.appendDecoded(m) {
				return 0, fmt.Errorf("betree: node %d: buffer %d out of index order: %w", n.id, ci, ErrChecksum)
			}
		}
	}
	d.lend()
	return d.pos, nil
}

// decodeLeafShell parses the header + basement directory of a leaf image,
// returning unloaded basements and the number of directory bytes consumed
// (partial-read support, §2.2). The shell checksum is verified before the
// directory is trusted: a torn or corrupted header region surfaces
// ErrChecksum instead of garbage basement extents. Callers have checked
// the magic and the leaf height. The basements come from one slab and
// their first keys from one arena; nothing aliases data.
func decodeLeafShell(data []byte) (bs []*basement, consumed int, err error) {
	defer func() {
		if recover() != nil {
			bs, consumed, err = nil, 0, fmt.Errorf("betree: truncated leaf directory: %w", ErrChecksum)
		}
	}()
	shellEnd := int(binary.BigEndian.Uint32(data[32:]))
	count := int(binary.BigEndian.Uint32(data[28:]))
	if shellEnd < baseHeaderSize || shellEnd > len(data) || count > (shellEnd-baseHeaderSize)/dirSlotSize {
		// A directory past the bytes given is not necessarily corrupt: it
		// may exceed the header-region read, and a partial read falls back
		// to a full read on any error, whose whole-image checksum decides.
		return nil, 0, fmt.Errorf("betree: %d-basement leaf shell ends at %d of %d bytes: %w", count, shellEnd, len(data), ErrChecksum)
	}
	if shellCRC(data, shellEnd) != binary.BigEndian.Uint32(data[36:]) {
		return nil, 0, fmt.Errorf("betree: leaf shell: %w", ErrChecksum)
	}
	slab := make([]basement, count)
	basements := make([]*basement, count)
	d := &nodeDecoder{data: data, pos: baseHeaderSize}
	for i := range slab {
		b := &slab[i]
		b.diskOff = int(d.u32())
		b.diskLen = int(d.u32())
		b.pageOff = int(d.u32())
		b.pageLen = int(d.u32())
		b.maxApplied = MSN(d.u64())
		d.u32() // entry count, informational
		b.crc = d.u32()
		basements[i] = b
	}
	keyBytes := 0
	for w, i := *d, 0; i < count; i++ {
		keyBytes += w.skipKeyed()
	}
	d.keys = make([]byte, 0, keyBytes)
	for _, b := range basements {
		b.firstKey = d.keyed()
	}
	return basements, d.pos, nil
}

// pageBase extracts the page-section base offset from a node image header.
func pageBase(data []byte) int {
	return int(binary.BigEndian.Uint32(data[24:]))
}

// checkSpan reports ErrChecksum unless b's small section and page range
// lie inside a node image of total bytes. The offsets come from a
// checksum-verified directory, so only a bug or a corrupt image that beat
// its checksum fails here; the check keeps such an image from panicking.
func (b *basement) checkSpan(total int64) error {
	if b.diskOff < baseHeaderSize || b.diskLen < 4 || int64(b.diskOff)+int64(b.diskLen) > total {
		return fmt.Errorf("betree: basement small section out of bounds: %w", ErrChecksum)
	}
	if b.pageOff < 0 || b.pageLen < 0 || int64(b.pageOff)+int64(b.pageLen) > total {
		return fmt.Errorf("betree: basement page range out of bounds: %w", ErrChecksum)
	}
	return nil
}

// decodeBasement materializes basement b from its two on-disk pieces:
// small, its small section, and pages, its page range (which begins at
// node offset b.pageOff). pb is the node's page-section base offset, taken
// from the checksum-verified header. The basement's directory checksum is
// verified over both pieces before decoding, so a basement-granular read
// of a torn or corrupted node surfaces ErrChecksum. Keys are copied into
// one arena; values borrow small and pages, which lie in img (see
// nodeDecoder), and are credited to it only when the whole basement
// decodes. A failed decode leaves b unloaded and holding no entries.
func decodeBasement(small, pages []byte, b *basement, pb int, img *image) (err error) {
	if b.loaded {
		return nil
	}
	defer func() {
		if recover() != nil {
			err = fmt.Errorf("betree: truncated basement: %w", ErrChecksum)
		}
		if err != nil {
			b.entries = nil
		}
	}()
	crc := crc32.ChecksumIEEE(small)
	if len(pages) > 0 {
		crc = crc32.Update(crc, crc32.IEEETable, pages)
	}
	if crc != b.crc {
		return fmt.Errorf("betree: basement at %d: %w", b.diskOff, ErrChecksum)
	}
	d := &nodeDecoder{data: small, img: img}
	nEntries := int(d.u32())
	prefix := d.take(int(d.u16()))
	// First pass: the key bytes the entries decode to. It panics on a
	// count the section cannot hold before anything is sized from it.
	suffixes := 0
	for w, i := *d, 0; i < nEntries; i++ {
		suffixes += w.skipKeyed()
		w.skipValue()
	}
	d.keys = make([]byte, 0, nEntries*len(prefix)+suffixes)
	b.entries = make([]entry, nEntries)
	for i := range b.entries {
		k := d.key(prefix, d.take(int(d.u16())))
		if len(k) > math.MaxUint16 {
			return fmt.Errorf("betree: basement at %d: entry %d has a %d-byte key: %w", b.diskOff, i, len(k), ErrChecksum)
		}
		if i > 0 && keylen.Compare(b.entries[i-1].key, k) >= 0 {
			return fmt.Errorf("betree: basement at %d: entry %d out of order: %w", b.diskOff, i, ErrChecksum)
		}
		b.entries[i] = entry{key: k, val: d.value(pages, pb-b.pageOff)}
	}
	d.lend()
	b.loaded = true
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

func smallSpan(bs []*basement) int {
	n := 0
	for _, b := range bs {
		n += b.diskLen
	}
	return n
}

// headerRegion is how many leading bytes of a node image are read to parse
// the header and basement directory for partial leaf reads.
const headerRegion = 16 << 10
