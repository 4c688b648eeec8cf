package betree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"
	"unsafe"

	"betrfs/internal/sim"
)

// FuzzDeserializeNode feeds arbitrary node images to the full-image
// decoder, each twice: as given, and resealed (every checksum recomputed
// over the bytes it covers) so that mutations reach the decoding behind
// the checksums. Every input must give an error wrapping ErrChecksum, or a
// node that serializes and decodes back to the same height, id, keys and
// values. The seed corpus in testdata/fuzz holds a leaf with lifted keys
// and aligned page values, two interior nodes whose partitions carry
// point messages, range deletes, updates and aligned page values, one
// partition empty, an interior node in the format before partitions
// (whose image has no directory, so it must fail), a truncated image, an
// image framed as the node-compression format this tree no longer has,
// and three damaged leaves a resealed image can carry: keys out of order
// (one shorter than the lifted prefix of its neighbours, which
// re-serialization cannot strip), a basement count of 2^32-1 and a
// basement entry count of 2^32-1 (neither may size an allocation).
func FuzzDeserializeNode(f *testing.F) {
	env := sim.NewEnv(1)
	f.Fuzz(func(t *testing.T, img []byte) {
		checkDecodes(t, env, img)
		checkDecodes(t, env, reseal(img))
	})
}

func checkDecodes(t *testing.T, env *sim.Env, img []byte) {
	n, err := deserializeNode(env, img, nil)
	if err != nil {
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("decode error does not wrap ErrChecksum: %v", err)
		}
		return
	}
	cfg := DefaultConfig()
	back, err := deserializeNode(env, serializeNode(env, &cfg, n, nil), nil)
	if err != nil {
		t.Fatalf("re-serialized node does not decode: %v", err)
	}
	if got, want := nodeContents(back), nodeContents(n); !bytes.Equal(got, want) {
		t.Fatalf("round trip changed the node:\n got  %q\n want %q", got, want)
	}
}

// FuzzDecodeBasement feeds arbitrary leaf images to the partial-read
// decoder, each as given and resealed (see FuzzDeserializeNode): the
// shell is decoded from the header region, and each basement from its
// small section and page range in a pooled image, as loadBasement does.
// Every basement must give an error wrapping ErrChecksum and leave no
// entry and no borrow behind, or entries that serialize and decode back
// unchanged, each value borrowing the image until released. Decoding may
// allocate only the entries and the key bytes it returns, never space
// sized from a count the section does not hold. The seed corpus in
// testdata/fuzz holds a leaf with lifted keys, aligned page values and
// several basements, a one-basement leaf of empty and tiny values, a
// basement whose entry count exceeds its entries, one whose keys are out
// of order, and a truncated image.
func FuzzDecodeBasement(f *testing.F) {
	env := sim.NewEnv(1)
	f.Fuzz(func(t *testing.T, img []byte) {
		checkBasements(t, env, img)
		checkBasements(t, env, reseal(img))
	})
}

func checkBasements(t *testing.T, env *sim.Env, img []byte) {
	isChecksum := func(what string, err error) {
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("%s: error does not wrap ErrChecksum: %v", what, err)
		}
	}
	n, _, err := decodeShell(img[:min(len(img), headerRegion)])
	if err != nil {
		isChecksum("shell", err)
		return
	}
	for bi, b := range n.basements {
		if err := b.checkSpan(int64(len(img))); err != nil {
			isChecksum("span", err)
			continue
		}
		im := getImage(int64(b.diskLen + b.pageLen))
		copy(im.b, img[b.diskOff:b.diskOff+b.diskLen])
		copy(im.b[b.diskLen:], img[b.pageOff:b.pageOff+b.pageLen])
		// decode decodes b afresh, returning the bytes and objects it
		// allocated.
		decode := func() (err error, bytes, objects uint64) {
			b.loaded, b.entries = false, nil
			im.refs.Store(0)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = decodeBasement(im.b[:b.diskLen], im.b[b.diskLen:], b, pageBase(img), im, crc32.ChecksumIEEE(im.b))
			runtime.ReadMemStats(&after)
			return err, after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
		}
		// What a decode may allocate: the entries and their keys, in at
		// most two objects, each rounded up to a size class or to pages.
		overAllocates := func(bytes, objects uint64) bool {
			keyBytes := 0
			for _, e := range b.entries {
				keyBytes += len(e.key)
			}
			justified := uint64(cap(b.entries))*uint64(unsafe.Sizeof(entry{})) + uint64(keyBytes)
			return bytes > justified+justified/8+2*8192 || objects > 2
		}
		err, bytes, objects := decode()
		// The fuzzing engine's own goroutines may allocate between the two
		// readings; a decode that over-allocates does so every time.
		for try := 0; err == nil && overAllocates(bytes, objects) && try < 3; try++ {
			err, bytes, objects = decode()
		}
		if err != nil {
			isChecksum(fmt.Sprintf("basement %d", bi), err)
			if b.loaded || b.entries != nil || im.refs.Load() != 0 {
				t.Fatalf("basement %d: failed decode left %d entries and %d borrows", bi, len(b.entries), im.refs.Load())
			}
			putImage(im)
			continue
		}
		if overAllocates(bytes, objects) {
			t.Fatalf("basement %d: decoding %d entries allocated %d bytes in %d objects", bi, len(b.entries), bytes, objects)
		}
		if cap(b.entries) != len(b.entries) {
			t.Fatalf("basement %d: %d entries in a slice of %d", bi, len(b.entries), cap(b.entries))
		}
		checkBasementRoundTrip(t, env, b)
		borrowed := int32(0)
		for _, e := range b.entries {
			if e.val.Len() > 0 {
				borrowed++
			}
		}
		if im.refs.Load() != borrowed {
			t.Fatalf("basement %d: %d borrows for %d non-empty values", bi, im.refs.Load(), borrowed)
		}
		(&Store{}).keep(im)
		for _, e := range b.entries {
			e.val.Release()
		}
		if !im.pooled.Load() {
			t.Fatalf("basement %d: image not back in the pool after every value was released", bi)
		}
	}
}

// FuzzDecodeLeafShell feeds header regions of leaf images to the shell
// decoder, as a partial read does (at most the first headerRegion bytes),
// each as given and resealed (see FuzzDeserializeNode; a region shorter
// than its image gets the shell and partition checksums that fit). Every
// input must give an error wrapping ErrChecksum, or at most one partition
// per directory slot the region holds, each with its small section and
// page range inside the header's total length. The seed corpus in
// testdata/fuzz holds a many-basement leaf's header region cut at its
// shell end, inside its first keys, inside its directory and inside its
// header, and two resealed regions that must fail: a basement span past
// the total, and a first key running past the shell end.
func FuzzDecodeLeafShell(f *testing.F) {
	f.Fuzz(func(t *testing.T, img []byte) {
		checkShell(t, img)
		checkShell(t, reseal(img))
	})
}

// FuzzDecodeInteriorShell is FuzzDecodeLeafShell for interior images: the
// shell decoder must return an error wrapping ErrChecksum, or the pivots,
// child IDs, key filters and child-buffer partitions of at most one child
// per directory slot and child ID the region holds, each partition inside
// the header's total length and missing, and none that holds no message
// admitting a key. The seed corpus in testdata/fuzz holds an
// interior node's header region cut at its shell end, inside its pivots
// and inside its directory, one with a partition holding aligned pages,
// and four resealed regions that must fail: a partition past the total,
// a pivot running past the shell end, a key filter running past it, and a
// shell with bytes left over.
func FuzzDecodeInteriorShell(f *testing.F) {
	f.Fuzz(func(t *testing.T, img []byte) {
		checkShell(t, img)
		checkShell(t, reseal(img))
	})
}

func checkShell(t *testing.T, img []byte) {
	hdr := img[:min(len(img), headerRegion)]
	n, _, err := decodeShell(hdr)
	if err != nil {
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("shell: error does not wrap ErrChecksum: %v", err)
		}
		return
	}
	slot := dirSlotSize
	if !n.isLeaf() {
		slot = partSlotSize + 8
		if len(n.pivots) != len(n.children)-1 || len(n.bufs) != len(n.children) {
			t.Fatalf("%d pivots, %d children and %d buffers", len(n.pivots), len(n.children), len(n.bufs))
		}
		for ci := range n.bufs {
			b := &n.bufs[ci]
			if !b.missing || b.len() != 0 {
				t.Fatalf("partition %d decoded from a shell", ci)
			}
			if b.count == 0 && b.mayHold(nil) {
				t.Fatalf("partition %d holds no message but may hold a key", ci)
			}
		}
	}
	ps := n.parts()
	if slots := (len(hdr) - baseHeaderSize) / slot; len(ps) > slots {
		t.Fatalf("%d partitions from a %d-byte region of %d directory slots", len(ps), len(hdr), slots)
	}
	total := int64(binary.BigEndian.Uint32(hdr[20:]))
	for i, p := range ps {
		small, pages := int64(p.diskOff)+int64(p.diskLen), int64(p.pageOff)+int64(p.pageLen)
		if p.diskOff < baseHeaderSize || p.diskLen < 0 || small > total || p.pageOff < 0 || p.pageLen < 0 || pages > total {
			t.Fatalf("partition %d: small section [%d,+%d) page range [%d,+%d) in a %d-byte image",
				i, p.diskOff, p.diskLen, p.pageOff, p.pageLen, total)
		}
	}
}

// FuzzDecodePartition feeds arbitrary interior images to the partial-read
// decoder, each as given and resealed (see FuzzDeserializeNode): the shell
// is decoded from the header region, and each child buffer from its one
// range in a pooled image, as loadPartition does. Every partition must
// give an error wrapping ErrChecksum and leave no message and no borrow
// behind, or messages that serialize and decode back unchanged, each
// non-empty value borrowing the image until released, and a key filter
// that admits every point message's key. Decoding may allocate only the
// messages, their index and their key bytes, never space sized from a
// count the section does not hold. The seed corpus in
// testdata/fuzz holds an interior node whose partitions carry point
// messages, range deletes, updates and aligned page values, one with an
// empty partition, a partition whose message count exceeds its messages,
// one whose key bytes exceed its keys', one whose messages are out of
// index order, and a truncated image.
func FuzzDecodePartition(f *testing.F) {
	env := sim.NewEnv(1)
	f.Fuzz(func(t *testing.T, img []byte) {
		checkPartitions(t, env, img)
		checkPartitions(t, env, reseal(img))
	})
}

func checkPartitions(t *testing.T, env *sim.Env, img []byte) {
	isChecksum := func(what string, err error) {
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("%s: error does not wrap ErrChecksum: %v", what, err)
		}
	}
	n, _, err := decodeShell(img[:min(len(img), headerRegion)])
	if err != nil {
		isChecksum("shell", err)
		return
	}
	for ci := range n.bufs {
		b := &n.bufs[ci]
		if err := b.within(int64(len(img))); err != nil {
			isChecksum("span", err)
			continue
		}
		size := b.diskLen + b.pageLen
		var im *image
		if size > 0 {
			im = getImage(int64(size))
			copy(im.b, img[b.diskOff:b.diskOff+size])
		}
		// decode decodes b afresh, returning the bytes it allocated.
		decode := func() (err error, bytes uint64) {
			b.missing, b.points, b.ranges, b.bytes = true, nil, nil, 0
			var small, pages []byte
			if im != nil {
				im.refs.Store(0)
				small, pages = im.b[:b.diskLen], im.b[b.diskLen:]
			}
			crc := crc32.Update(crc32.ChecksumIEEE(small), crc32.IEEETable, pages)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = decodePartition(small, pages, b, im, crc)
			runtime.ReadMemStats(&after)
			return err, after.TotalAlloc - before.TotalAlloc
		}
		// What a decode may allocate: the message slab, the point index,
		// the range-delete list as it grows, and the keys, each rounded up
		// to a size class or to pages.
		overAllocates := func(bytes uint64) bool {
			keyBytes := 0
			for _, list := range [2][]*Msg{b.points, b.ranges} {
				for _, m := range list {
					keyBytes += len(m.Key) + len(m.EndKey)
				}
			}
			k := uint64(b.len())
			justified := k*uint64(unsafe.Sizeof(Msg{})) + 3*k*uint64(unsafe.Sizeof((*Msg)(nil))) + uint64(keyBytes)
			return bytes > justified+justified/8+4*8192
		}
		err, bytes := decode()
		for try := 0; err == nil && overAllocates(bytes) && try < 3; try++ {
			err, bytes = decode()
		}
		if err != nil {
			isChecksum(fmt.Sprintf("partition %d", ci), err)
			if !b.missing || b.len() != 0 || im != nil && im.refs.Load() != 0 {
				t.Fatalf("partition %d: failed decode left %d messages and a loaded buffer", ci, b.len())
			}
			if im != nil {
				putImage(im)
			}
			continue
		}
		if overAllocates(bytes) {
			t.Fatalf("partition %d: decoding %d messages allocated %d bytes", ci, b.len(), bytes)
		}
		checkPartitionRoundTrip(t, env, b)
		borrowed := int32(0)
		for _, m := range b.points {
			if m.Val.Len() > 0 {
				borrowed++
			}
		}
		if im == nil {
			if borrowed != 0 {
				t.Fatalf("partition %d: %d values from no bytes", ci, borrowed)
			}
			continue
		}
		if im.refs.Load() != borrowed {
			t.Fatalf("partition %d: %d borrows for %d non-empty values", ci, im.refs.Load(), borrowed)
		}
		(&Store{}).keep(im)
		for _, m := range b.points {
			m.Val.Release()
		}
		if !im.pooled.Load() {
			t.Fatalf("partition %d: image not back in the pool after every value was released", ci)
		}
	}
}

// checkPartitionRoundTrip serializes a decoded child buffer as the one
// partition of an interior node and decodes it back through the same
// partial-read path.
func checkPartitionRoundTrip(t *testing.T, env *sim.Env, b *buffer) {
	cfg := DefaultConfig()
	data := serializeNode(env, &cfg, &node{id: 1, height: 1, children: []nodeID{2}, bufs: []buffer{*b}}, nil)
	n, _, err := decodeShell(data[:min(len(data), headerRegion)])
	if err != nil {
		t.Fatalf("re-serialized shell does not decode: %v", err)
	}
	back := &n.bufs[0]
	if err := decodePartition(data[back.diskOff:back.diskOff+back.diskLen], data[back.pageOff:back.pageOff+back.pageLen], back, nil,
		crc32.ChecksumIEEE(data[back.diskOff:back.pageOff+back.pageLen])); err != nil {
		t.Fatalf("re-serialized partition does not decode: %v", err)
	}
	for _, m := range back.points {
		if !back.mayHold(m.Key) {
			t.Fatalf("the key filter rules out %q, which the partition holds", m.Key)
		}
	}
	render := func(b *buffer) []byte {
		var out bytes.Buffer
		for _, list := range [2][]*Msg{b.points, b.ranges} {
			for _, m := range list {
				fmt.Fprintf(&out, "%d/%d %q-%q@%d=%q;", m.Type, m.MSN, m.Key, m.EndKey, m.Off, m.Val.Bytes())
			}
		}
		return out.Bytes()
	}
	if got, want := render(back), render(b); !bytes.Equal(got, want) {
		t.Fatalf("round trip changed the partition:\n got  %q\n want %q", got, want)
	}
}

// checkBasementRoundTrip serializes a decoded basement as a one-basement
// leaf and decodes it back through the same partial-read path.
func checkBasementRoundTrip(t *testing.T, env *sim.Env, b *basement) {
	cfg := DefaultConfig()
	data := serializeNode(env, &cfg, &node{basements: []*basement{b}}, nil)
	n, _, err := decodeShell(data[:min(len(data), headerRegion)])
	if err != nil {
		t.Fatalf("re-serialized shell does not decode: %v", err)
	}
	back := n.basements[0]
	small, pages := data[back.diskOff:back.diskOff+back.diskLen], data[back.pageOff:back.pageOff+back.pageLen]
	if err := decodeBasement(small, pages, back, pageBase(data), nil, crc32.Update(crc32.ChecksumIEEE(small), crc32.IEEETable, pages)); err != nil {
		t.Fatalf("re-serialized basement does not decode: %v", err)
	}
	render := func(b *basement) []byte {
		var out bytes.Buffer
		fmt.Fprintf(&out, "%q@%d;", b.lowKey(), b.maxApplied)
		for _, e := range b.entries {
			fmt.Fprintf(&out, "%q=%q;", e.key, e.val.Bytes())
		}
		return out.Bytes()
	}
	if got, want := render(back), render(b); !bytes.Equal(got, want) {
		t.Fatalf("round trip changed the basement:\n got  %q\n want %q", got, want)
	}
}

// nodeContents renders what a round trip must keep: height, id, and the
// keys and values of a leaf, or the pivots, children and messages of an
// interior node.
func nodeContents(n *node) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "h%d id%d;", n.height, n.id)
	for _, e := range leafEntries(n) {
		fmt.Fprintf(&b, "%q=%q;", e.key, e.val.Bytes())
	}
	fmt.Fprintf(&b, "%q %v;", n.pivots, n.children)
	for ci := range n.bufs {
		for _, list := range [2][]*Msg{n.bufs[ci].points, n.bufs[ci].ranges} {
			for _, m := range list {
				fmt.Fprintf(&b, "%d:%d/%d %q-%q@%d=%q;", ci, m.Type, m.MSN, m.Key, m.EndKey, m.Off, m.Val.Bytes())
			}
		}
	}
	return b.Bytes()
}

// reseal returns a copy of img with its checksums recomputed where the
// header's lengths and img's own length allow, in the order serializeNode
// writes them: each partition's over its small section and page range,
// the shell's, then the whole image's. A header region (a prefix of its
// image) gets the shell and partition checksums that fit in it.
func reseal(img []byte) []byte {
	img = append([]byte(nil), img...)
	u32 := func(off int) int { return int(binary.BigEndian.Uint32(img[off:])) }
	if len(img) < baseHeaderSize || u32(20) < baseHeaderSize {
		return img
	}
	total, shellEnd := u32(20), u32(32)
	have := min(total, len(img))
	if shellEnd >= baseHeaderSize && shellEnd <= have {
		leaf := u32(8) == 0
		size := partSlotSize
		if leaf {
			size = dirSlotSize
		}
		dirEnd := baseHeaderSize + u32(28)*size
		for slot := baseHeaderSize; slot < dirEnd && slot+size <= shellEnd; slot += size {
			// An interior partition is one range, a basement two.
			off, n, poff, pn, at := u32(slot), u32(slot+4)+u32(slot+8), 0, 0, slot+24
			if leaf {
				off, n, poff, pn, at = u32(slot), u32(slot+4), u32(slot+8), u32(slot+12), slot+28
			}
			if off+n > have || poff+pn > have {
				continue
			}
			crc := crc32.Update(crc32.ChecksumIEEE(img[off:off+n]), crc32.IEEETable, img[poff:poff+pn])
			binary.BigEndian.PutUint32(img[at:], crc)
		}
		binary.BigEndian.PutUint32(img[36:], sumShell(img, shellEnd).crc())
	}
	if total <= len(img) {
		binary.BigEndian.PutUint32(img[0:], crc32.ChecksumIEEE(img[4:total]))
	}
	return img
}
