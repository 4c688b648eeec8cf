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

// Minimum encoded sizes, which bound every count read from an image by
// the bytes left to hold its items: a value is a flag byte and a 4-byte
// length, a basement entry a 2-byte key length and a value, and a buffered
// message a type byte, an MSN, two key lengths, an offset and a value.
const (
	minValueSize = 1 + 4
	minEntrySize = 2 + minValueSize
	minMsgSize   = 1 + 8 + 2 + 2 + 4 + minValueSize
)

// serializeNode encodes n into buf, charging serialization and checksum
// CPU costs, and returns the image. buf is written from its start; when its
// capacity is at least encodedSizeBound(cfg, n) the image is buf's own
// memory, otherwise (nil, say) a buffer of that bound is allocated.
// Returned bytes are 4 KiB-aligned in length.
func serializeNode(env *sim.Env, cfg *Config, n *node, buf []byte) []byte {
	if bound := encodedSizeBound(cfg, n); cap(buf) < bound {
		buf = make([]byte, 0, bound)
	}
	// Header placeholder; patched at the end.
	e := codec.Encoder{Buf: append(buf[:0], make([]byte, baseHeaderSize)...)}
	keyed := func(b []byte) { e.U16(uint16(len(b))); e.Bytes(b) }

	var pages [][]byte // aligned payloads appended at the tail
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
		pageBytes += (v.Len() + blockAlign - 1) &^ (blockAlign - 1)
	}

	// A leaf's basement directory, patched once the page section is laid
	// out: each basement's small section and page range (offset from the
	// page-section base).
	type bloc struct{ smallOff, smallLen, pageOff, pageLen int }
	var locs []bloc
	shellEnd, count := baseHeaderSize, len(n.children)
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
		shellEnd, count = len(e.Buf), len(n.basements)
		// Basement small sections. With lifting (§2.2), the longest
		// common prefix of a basement's keys is stored once and
		// stripped from every key — very effective for full-path keys.
		locs = make([]bloc, len(n.basements))
		for bi, b := range n.basements {
			start, pstart := len(e.Buf), pageBytes
			e.U32(uint32(len(b.entries)))
			prefix := b.prefix()
			keyed(prefix)
			for i := range b.entries {
				keyed(b.entries[i].key[len(prefix):])
				encValue(b.entries[i].val)
			}
			locs[bi] = bloc{smallOff: start, smallLen: len(e.Buf) - start, pageOff: pstart, pageLen: pageBytes - pstart}
		}
	} else {
		e.U32(uint32(len(n.children)))
		for _, p := range n.pivots {
			keyed(p)
		}
		for _, c := range n.children {
			e.U64(uint64(c))
		}
		// Each buffer is stored in index order, point messages first, so
		// decoding rebuilds the index in one pass.
		for ci := range n.bufs {
			b := &n.bufs[ci]
			e.U32(uint32(b.len()))
			for _, list := range [2][]*Msg{b.points, b.ranges} {
				for _, m := range list {
					e.U8(uint8(m.Type))
					e.U64(uint64(m.MSN))
					keyed(m.Key)
					keyed(m.EndKey)
					e.U32(uint32(m.Off))
					encValue(m.Val)
				}
			}
		}
	}
	// Everything so far took CPU serialization work; the aligned page
	// payloads below do not (page sharing writes them by reference).
	small := len(e.Buf)

	// The page section begins at the next aligned boundary, and each
	// payload is padded to whole blocks, so the image ends aligned.
	buf = e.Buf
	pageBase := (len(buf) + blockAlign - 1) &^ (blockAlign - 1)
	buf = append(buf, make([]byte, pageBase-len(buf))...)
	for _, p := range pages {
		buf = append(buf, p...)
		buf = append(buf, make([]byte, (blockAlign-len(p)%blockAlign)%blockAlign)...)
	}
	// Patch the directory, including each basement's checksum over its
	// small section and page range (verified by basement-granular partial
	// reads).
	for bi, loc := range locs {
		slot := baseHeaderSize + bi*dirSlotSize
		binary.BigEndian.PutUint32(buf[slot:], uint32(loc.smallOff))
		binary.BigEndian.PutUint32(buf[slot+4:], uint32(loc.smallLen))
		binary.BigEndian.PutUint32(buf[slot+8:], uint32(pageBase+loc.pageOff))
		binary.BigEndian.PutUint32(buf[slot+12:], uint32(loc.pageLen))
		binary.BigEndian.PutUint64(buf[slot+16:], uint64(n.basements[bi].maxApplied))
		binary.BigEndian.PutUint32(buf[slot+24:], uint32(len(n.basements[bi].entries)))
		crc := crc32.ChecksumIEEE(buf[loc.smallOff : loc.smallOff+loc.smallLen])
		if loc.pageLen > 0 {
			crc = crc32.Update(crc, crc32.IEEETable, buf[pageBase+loc.pageOff:pageBase+loc.pageOff+loc.pageLen])
		}
		binary.BigEndian.PutUint32(buf[slot+28:], crc)
	}
	patchHeader(buf, n, pageBase, count)

	// Patch the length-dependent header fields and checksums: the shell
	// crc covers the header (minus the two crc fields) and the directory +
	// first keys, so it must be computed after the total length and shell
	// end are in place; the whole-image crc goes last, covering everything
	// after itself.
	binary.BigEndian.PutUint32(buf[20:], uint32(len(buf)))
	binary.BigEndian.PutUint32(buf[32:], uint32(shellEnd))
	binary.BigEndian.PutUint32(buf[36:], shellCRC(buf, shellEnd))
	binary.BigEndian.PutUint32(buf[0:], crc32.ChecksumIEEE(buf[4:]))

	env.Serialize(small)
	env.Checksum(len(buf))
	return buf
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

// nodeDecoder reads a node image through a bounds-checked codec.Decoder,
// whose first failed read latches an error that each decode checks and
// reports as ErrChecksum. Keys are copied into one arena per node or
// basement; values borrow the image (value).
type nodeDecoder struct {
	codec.Decoder
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
// at pageBase plus its recorded offset: for a full image, pages is the
// image and pageBase the header's page-section base; for a basement,
// pages is its page range and pageBase is shifted to match. A payload
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
		// The shell checks every basement's span against the header's
		// total, which is len(data).
		shell, err := decodeLeafShell(data)
		if err != nil {
			return nil, err
		}
		n.basements = shell
		n.pageBase = pageBase(data)
		for _, b := range n.basements {
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
// surfaces ErrChecksum instead of a misordered index.
func decodeInterior(n *node, data []byte, count int, img *image) (read int, err error) {
	d := &nodeDecoder{Decoder: codec.NewDecoder(data), img: img}
	d.Take(baseHeaderSize)
	// A child costs at least its 8-byte ID and its buffer's 4-byte
	// message count.
	if got := int(d.U32()); got != count || count < 1 || count > d.Len()/12 {
		return 0, fmt.Errorf("betree: bad child count %d: %w", count, ErrChecksum)
	}
	// First pass: count the messages and key bytes. Nothing is sized from
	// its counts unless every read it made was in bounds.
	msgs, keyBytes := 0, 0
	w := *d
	for i := 0; i < count-1; i++ {
		keyBytes += w.skipKeyed()
	}
	w.Take(8 * count)
	for ci := 0; ci < count; ci++ {
		k := int(w.U32())
		if k > w.Len()/minMsgSize {
			return 0, fmt.Errorf("betree: node %d: buffer %d of %d messages in %d bytes: %w", n.id, ci, k, w.Len(), ErrChecksum)
		}
		for i := 0; i < k; i++ {
			w.Take(9)
			keyBytes += w.skipKeyed() + w.skipKeyed()
			w.U32()
			w.skipValue()
		}
		msgs += k
	}
	if err := w.Err(); err != nil {
		return 0, fmt.Errorf("betree: node %d: interior image: %w: %w", n.id, ErrChecksum, err)
	}

	d.keys = make([]byte, 0, keyBytes)
	n.pivots = make([][]byte, count-1)
	for i := range n.pivots {
		n.pivots[i] = d.keyed()
	}
	n.children = make([]nodeID, count)
	for i := range n.children {
		n.children[i] = nodeID(d.U64())
	}
	n.bufs = make([]buffer, count)
	slab := make([]Msg, msgs)
	index := make([]*Msg, msgs)
	pb := pageBase(data)
	for ci := range n.bufs {
		k := int(d.U32())
		b := &n.bufs[ci]
		// Point messages index into this buffer's share of the slab's
		// pointers, capped so an insert cannot spill into the next share.
		b.points = index[:0:k]
		index = index[k:]
		for i := 0; i < k; i++ {
			m := &slab[0]
			slab = slab[1:]
			m.Type = MsgType(d.U8())
			m.MSN = MSN(d.U64())
			m.Key = d.keyed()
			m.EndKey = d.keyed()
			m.Off = int(d.U32())
			if m.Val, err = d.value(data, pb); err != nil {
				return 0, err
			}
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
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("betree: node %d: interior image: %w: %w", n.id, ErrChecksum, err)
	}
	d.lend()
	return len(data) - d.Len(), nil
}

// decodeLeafShell parses the header + basement directory of a leaf image,
// returning unloaded basements (partial-read support, §2.2). The shell checksum is verified before the
// directory is trusted, and every basement's small section and page range
// must lie inside the header's total length: a torn or corrupted header
// region surfaces ErrChecksum instead of garbage basement extents, and so
// does a region that is not a leaf's. The basements come from one slab and
// their first keys from one arena; nothing aliases data.
func decodeLeafShell(data []byte) ([]*basement, error) {
	if len(data) < baseHeaderSize || binary.BigEndian.Uint32(data[4:]) != nodeMagic || binary.BigEndian.Uint32(data[8:]) != 0 {
		return nil, fmt.Errorf("betree: %d bytes with no leaf header: %w", len(data), ErrChecksum)
	}
	shellEnd := int(binary.BigEndian.Uint32(data[32:]))
	count := int(binary.BigEndian.Uint32(data[28:]))
	if shellEnd < baseHeaderSize || shellEnd > len(data) || count > (shellEnd-baseHeaderSize)/dirSlotSize {
		// A directory past the bytes given is not necessarily corrupt: it
		// may exceed the header-region read, and a partial read falls back
		// to a full read on any error, whose whole-image checksum decides.
		return nil, fmt.Errorf("betree: %d-basement leaf shell ends at %d of %d bytes: %w", count, shellEnd, len(data), ErrChecksum)
	}
	if shellCRC(data, shellEnd) != binary.BigEndian.Uint32(data[36:]) {
		return nil, fmt.Errorf("betree: leaf shell: %w", ErrChecksum)
	}
	total := int64(binary.BigEndian.Uint32(data[20:]))
	slab := make([]basement, count)
	basements := make([]*basement, count)
	// The first keys are read from the checksummed shell only.
	d := &nodeDecoder{Decoder: codec.NewDecoder(data[:shellEnd])}
	d.Take(baseHeaderSize)
	for i := range slab {
		b := &slab[i]
		b.diskOff = int(d.U32())
		b.diskLen = int(d.U32())
		b.pageOff = int(d.U32())
		b.pageLen = int(d.U32())
		b.maxApplied = MSN(d.U64())
		d.U32() // entry count, informational
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

// pageBase extracts the page-section base offset from a node image header.
func pageBase(data []byte) int {
	return int(binary.BigEndian.Uint32(data[24:]))
}

// checkSpan reports ErrChecksum unless b's small section and page range
// lie inside a node image of total bytes. The shell checks each span
// against its header's total; a partial read checks again against the
// extent it reads from.
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
