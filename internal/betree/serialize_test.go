package betree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"betrfs/internal/sim"
)

func mkLeaf(entries []entry, basementSize int) *node {
	n := &node{id: 7, height: 0}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].key, entries[j].key) < 0 })
	n.basements = rebalanceBasements(entries, basementSize)
	return n
}

func leafEntries(n *node) []entry {
	var out []entry
	for _, b := range n.basements {
		out = append(out, b.entries...)
	}
	return out
}

func TestLeafSerializeRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	var entries []entry
	for i := 0; i < 500; i++ {
		entries = append(entries, entry{
			key: []byte(fmt.Sprintf("dir/file%04d", i)),
			val: InlineValue(bytes.Repeat([]byte{byte(i)}, 50+i%200)),
		})
	}
	n := mkLeaf(entries, 4<<10)
	n.basements[0].maxApplied = 42
	data := serializeNode(env, &cfg, n, nil)
	if len(data)%4096 != 0 {
		t.Fatalf("serialized length %d not block aligned", len(data))
	}
	got, err := deserializeNode(env, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	ge := leafEntries(got)
	we := leafEntries(n)
	if len(ge) != len(we) {
		t.Fatalf("entry count %d != %d", len(ge), len(we))
	}
	for i := range ge {
		if !bytes.Equal(ge[i].key, we[i].key) || !bytes.Equal(ge[i].val.Bytes(), we[i].val.Bytes()) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	if got.basements[0].maxApplied != 42 {
		t.Fatal("maxApplied lost")
	}
}

func TestLeafAlignedValuesRoundTrip(t *testing.T) {
	// 4 KiB values must survive the aligned page-section format.
	for _, pgsh := range []bool{true, false} {
		env := sim.NewEnv(1)
		cfg := DefaultConfig()
		cfg.PageSharing = pgsh
		var entries []entry
		for i := 0; i < 64; i++ {
			v := bytes.Repeat([]byte{byte(i * 3)}, 4096)
			entries = append(entries, entry{key: []byte(fmt.Sprintf("f%03d", i)), val: InlineValue(v)})
		}
		n := mkLeaf(entries, 128<<10)
		data := serializeNode(env, &cfg, n, nil)
		got, err := deserializeNode(env, data, nil)
		if err != nil {
			t.Fatalf("pgsh=%v: %v", pgsh, err)
		}
		for i, e := range leafEntries(got) {
			if len(e.val.Bytes()) != 4096 || e.val.Bytes()[0] != byte(i*3) {
				t.Fatalf("pgsh=%v: page value %d corrupted", pgsh, i)
			}
		}
	}
}

func TestInteriorSerializeRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	n := &node{id: 9, height: 2}
	n.children = []nodeID{10, 11, 12}
	n.pivots = [][]byte{[]byte("m"), []byte("t")}
	n.bufs = make([]buffer, 3)
	msn := MSN(1)
	for ci := 0; ci < 3; ci++ {
		for i := 0; i < 20; i++ {
			n.bufs[ci].insert(&Msg{
				Type: MsgInsert, MSN: msn,
				Key: []byte(fmt.Sprintf("c%d/k%02d", ci, i)),
				Val: InlineValue(bytes.Repeat([]byte{1}, 30)),
			})
			msn++
		}
	}
	n.bufs[1].insert(&Msg{Type: MsgRangeDelete, MSN: msn, Key: []byte("p"), EndKey: []byte("q")})
	n.bufs[2].insert(&Msg{Type: MsgUpdate, MSN: msn + 1, Key: []byte("u"), Off: 17, Val: InlineValue([]byte{9})})

	data := serializeNode(env, &cfg, n, nil)
	got, err := deserializeNode(env, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.children) != 3 || len(got.pivots) != 2 {
		t.Fatal("structure lost")
	}
	if got.bufs[1].len() != 21 || got.bufs[2].len() != 21 {
		t.Fatalf("buffer counts %d/%d", got.bufs[1].len(), got.bufs[2].len())
	}
	last := got.bufs[2].points[20]
	if last.Type != MsgUpdate || last.Off != 17 {
		t.Fatal("update message lost fields")
	}
	rd := got.bufs[1].ranges[0]
	if rd.Type != MsgRangeDelete || string(rd.EndKey) != "q" {
		t.Fatal("range delete lost fields")
	}
}

func TestCorruptNodeDetected(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	n := mkLeaf([]entry{{key: []byte("k"), val: InlineValue([]byte("v"))}}, 4<<10)
	data := serializeNode(env, &cfg, n, nil)
	data[len(data)/2] ^= 0xff
	if _, err := deserializeNode(env, data, nil); err == nil {
		t.Fatal("corrupted node passed checksum verification")
	}
}

func TestLeafShellPartialDecode(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	var entries []entry
	for i := 0; i < 1000; i++ {
		entries = append(entries, entry{key: []byte(fmt.Sprintf("k%06d", i)), val: InlineValue(make([]byte, 100))})
	}
	n := mkLeaf(entries, 8<<10)
	data := serializeNode(env, &cfg, n, nil)
	got0, _, err := decodeShell(data)
	if err != nil {
		t.Fatal(err)
	}
	shell := got0.basements
	if shellEnd := binary.BigEndian.Uint32(data[32:]); shellEnd > headerRegion {
		t.Skipf("directory larger than header region (%d)", shellEnd)
	}
	if len(shell) != len(n.basements) {
		t.Fatalf("shell has %d basements, want %d", len(shell), len(n.basements))
	}
	// Load just one basement and verify its entries.
	bi := len(shell) / 2
	b := shell[bi]
	small, pages := data[b.diskOff:b.diskOff+b.diskLen], data[b.pageOff:b.pageOff+b.pageLen]
	if err := decodeBasement(small, pages, b, pageBase(data), nil, crc32.Update(crc32.ChecksumIEEE(small), crc32.IEEETable, pages)); err != nil {
		t.Fatal(err)
	}
	want := n.basements[bi].entries
	got := shell[bi].entries
	if len(got) != len(want) || !bytes.Equal(got[0].key, want[0].key) {
		t.Fatal("partial basement decode mismatch")
	}
}

// TestHugeCountsFailFast reseals leaf and interior images whose counts
// claim 2^32-1 items. Each must fail with ErrChecksum at once, allocating
// less than the image's own size: no count bounds a loop or sizes an
// allocation before it is checked against the bytes left to hold it.
func TestHugeCountsFailFast(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	var entries []entry
	for i := 0; i < 40; i++ {
		entries = append(entries, entry{key: []byte(fmt.Sprintf("d/f%03d", i)), val: InlineValue([]byte("value"))})
	}
	leaf := serializeNode(env, &cfg, mkLeaf(entries, 4<<10), nil)
	in := &node{id: 9, height: 1, children: []nodeID{10}, bufs: make([]buffer, 1)}
	for i := 0; i < 40; i++ {
		in.bufs[0].insert(&Msg{Type: MsgInsert, MSN: MSN(i + 1), Key: []byte(fmt.Sprintf("k%03d", i)), Val: InlineValue([]byte("v"))})
	}
	interior := serializeNode(env, &cfg, in, nil)
	for _, c := range []struct {
		name string
		img  []byte
		offs []int // where the count is stored
	}{
		{"leaf basement count", leaf, []int{28}},
		{"basement entry count", leaf, []int{int(binary.BigEndian.Uint32(leaf[baseHeaderSize:]))}},
		{"interior child count", interior, []int{28}},
		{"interior message count", interior, []int{baseHeaderSize + 12}},
	} {
		img := append([]byte(nil), c.img...)
		for _, off := range c.offs {
			binary.BigEndian.PutUint32(img[off:], math.MaxUint32)
		}
		img = reseal(img)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := deserializeNode(env, img, nil)
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrChecksum) {
			t.Errorf("%s: got %v, want ErrChecksum", c.name, err)
		}
		if took > time.Second {
			t.Errorf("%s: decode took %v", c.name, took)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(img)) {
			t.Errorf("%s: decoding a %d-byte image allocated %d bytes", c.name, len(img), alloc)
		}
	}
}

func TestSerializeRoundTripProperty(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	f := func(seed uint32, count uint8) bool {
		rnd := sim.NewRand(uint64(seed) + 1)
		var entries []entry
		seen := map[string]bool{}
		for i := 0; i < int(count)+1; i++ {
			k := fmt.Sprintf("p%d/f%04d", rnd.Intn(5), rnd.Intn(5000))
			if seen[k] {
				continue
			}
			seen[k] = true
			v := make([]byte, rnd.Intn(6000))
			for j := range v {
				v[j] = byte(rnd.Intn(256))
			}
			entries = append(entries, entry{key: []byte(k), val: InlineValue(v)})
		}
		n := mkLeaf(entries, 2<<10)
		got, err := deserializeNode(env, serializeNode(env, &cfg, n, nil), nil)
		if err != nil {
			return false
		}
		ge, we := leafEntries(got), leafEntries(n)
		if len(ge) != len(we) {
			return false
		}
		for i := range ge {
			if !bytes.Equal(ge[i].key, we[i].key) || !bytes.Equal(ge[i].val.Bytes(), we[i].val.Bytes()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBlockTableAllocateRelease(t *testing.T) {
	bt := newBlockTable(1 << 20)
	e1, err := bt.allocate(10000)
	if err != nil {
		t.Fatal(err)
	}
	if e1.len%blockAlign != 0 {
		t.Fatal("extent not aligned")
	}
	e2, _ := bt.allocate(20000)
	if e2.off < e1.off+e1.len {
		t.Fatal("extents overlap")
	}
	bt.release(e1)
	bt.release(e2)
	// After releasing everything, one full-size extent should be allocatable.
	if _, err := bt.allocate(1 << 20); err != nil {
		t.Fatalf("free list did not coalesce: %v", err)
	}
}

func TestBlockTableCoWProtection(t *testing.T) {
	bt := newBlockTable(1 << 20)
	e1, _ := bt.allocate(4096)
	bt.place(1, e1)
	bt.checkpointCommitted() // node 1's extent is now checkpoint-protected
	e2, _ := bt.allocate(4096)
	bt.place(1, e2) // rewrite: old extent must be deferred, not freed
	if len(bt.deferred) != 1 {
		t.Fatalf("deferred=%d, want 1", len(bt.deferred))
	}
	for _, f := range bt.free {
		if f.off <= e1.off && e1.off < f.off+f.len {
			t.Fatal("old extent freed before checkpoint commit")
		}
	}
	bt.checkpointCommitted()
	if len(bt.deferred) != 0 {
		t.Fatal("deferred extents survived checkpoint")
	}
}

func TestBlockTableSerializeRoundTrip(t *testing.T) {
	bt := newBlockTable(1 << 20)
	for i := nodeID(1); i <= 20; i++ {
		e, _ := bt.allocate(int64(4096 * i))
		bt.place(i, e)
	}
	blob := bt.serialize()
	got, err := loadBlockTable(1<<20, blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.entries) != 20 {
		t.Fatalf("entries=%d", len(got.entries))
	}
	for i := nodeID(1); i <= 20; i++ {
		a, _ := bt.lookup(i)
		b, ok := got.lookup(i)
		if !ok || a != b {
			t.Fatalf("node %d extent mismatch", i)
		}
	}
	if !reflect.DeepEqual(got.free, bt.free) {
		t.Fatalf("free list %v != %v (free list rebuild)", got.free, bt.free)
	}
}

// TestLiftingShrinksNodes checks §2.2 lifting: a leaf of full-path keys
// serializes to fewer bytes than its full keys and values alone take, and
// the lifted keys round trip.
func TestLiftingShrinksNodes(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	var entries []entry
	full := 0
	for i := 0; i < 400; i++ {
		entries = append(entries, entry{
			key: []byte(fmt.Sprintf("usr/src/linux/fs/ext4/inode%04d.c", i)),
			val: InlineValue(make([]byte, 20)),
		})
		full += len(entries[i].key) + entries[i].val.Len()
	}
	dl := serializeNode(env, &cfg, mkLeaf(entries, 8<<10), nil)
	if len(dl) >= full {
		t.Fatalf("lifted image is %d bytes, not below its %d bytes of full keys and values", len(dl), full)
	}
	got, err := deserializeNode(env, dl, nil)
	if err != nil {
		t.Fatal(err)
	}
	ge := leafEntries(got)
	if len(ge) != len(entries) || !bytes.Equal(ge[7].key, []byte("usr/src/linux/fs/ext4/inode0007.c")) {
		t.Fatal("lifted keys did not round trip")
	}
}

// TestBorrowedImageNotRecycled decodes node images, the basements of a
// leaf image and the partitions of an interior image from pooled images. Every value borrows its bytes from the
// image; the image stays out of the pool while any value is held and goes
// back when the last is released; and overwriting it after that changes
// no live node, whose keys live in their own arena. It also checks
// encodedSizeBound.
func TestBorrowedImageNotRecycled(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig() // page sharing and lifting on
	var entries []entry
	for i := 0; i < 300; i++ {
		size := 40
		if i%3 == 0 {
			size = alignedValueMin + i // lands in the aligned page section
		}
		entries = append(entries, entry{key: []byte(fmt.Sprintf("usr/share/doc/f%04d", i)), val: InlineValue(bytes.Repeat([]byte{byte(i)}, size))})
	}
	leaf := mkLeaf(entries, 16<<10)
	interior := &node{id: 9, height: 1, children: []nodeID{10, 11}, pivots: [][]byte{[]byte("k020")}, bufs: make([]buffer, 2)}
	for i := 0; i < 40; i++ {
		interior.bufs[i/20].insert(&Msg{Type: MsgInsert, MSN: MSN(i + 1), Key: []byte(fmt.Sprintf("k%03d", i)), Val: InlineValue(bytes.Repeat([]byte{byte(i + 1)}, 100*i+1))})
	}
	s := &Store{} // for keep and ImagesOut
	flip := func(b []byte) {
		for i := range b {
			b[i] ^= 0xff
		}
	}
	// drain checks one decode from im whose values are vals and whose
	// keys render as keys(), releasing the values one by one.
	drain := func(what string, im *image, vals []Value, keys func() string) {
		t.Helper()
		if got := im.refs.Load(); got != int32(len(vals)) || s.ImagesOut() != 1 {
			t.Fatalf("%s: %d borrows for %d values, %d images out", what, got, len(vals), s.ImagesOut())
		}
		want := make([][]byte, len(vals))
		for i, v := range vals {
			want[i] = append([]byte(nil), v.Bytes()...)
		}
		flip(im.b)
		for i, v := range vals {
			if bytes.Equal(v.Bytes(), want[i]) {
				t.Fatalf("%s: value %d did not change with its image: it was copied, not borrowed", what, i)
			}
		}
		flip(im.b)
		wantKeys := keys()
		for i, v := range vals {
			if im.pooled.Load() {
				t.Fatalf("%s: image back in the pool with %d of %d values held", what, len(vals)-i, len(vals))
			}
			v.Release()
		}
		if !im.pooled.Load() || s.ImagesOut() != 0 {
			t.Fatalf("%s: image not back in the pool after its last value was released", what)
		}
		for i := range im.b {
			im.b[i] = 0xa5
		}
		if keys() != wantKeys {
			t.Fatalf("%s: overwriting the recycled image changed the node", what)
		}
	}
	pooled := func(data []byte) *image {
		im := getImage(int64(len(data)))
		copy(im.b, data)
		return im
	}

	for _, n := range []*node{leaf, interior} {
		data := serializeNode(env, &cfg, n, nil)
		// The bound takes a whole block for each alignment pad: the page
		// section's and the image end's, and one in front of each interior
		// partition that has pages.
		pads := 2
		for _, p := range n.parts() {
			if !n.isLeaf() && p.pageLen > 0 {
				pads++
			}
		}
		if bound := encodedSizeBound(&cfg, n); len(data) > bound || bound >= len(data)+pads*blockAlign+8 {
			t.Errorf("height %d: encodedSizeBound %d, image %d bytes", n.height, bound, len(data))
		}
		im := pooled(data)
		got, err := deserializeNode(env, im.b, im)
		if err != nil {
			t.Fatal(err)
		}
		s.keep(im)
		drain(fmt.Sprintf("height %d", n.height), im, nodeValues(got), func() string { return nodeKeys(got) })
	}

	data := serializeNode(env, &cfg, leaf, nil)
	shell, _, err := decodeShell(data)
	if err != nil {
		t.Fatal(err)
	}
	for bi, b := range shell.basements {
		im := pooled(append(append([]byte(nil), data[b.diskOff:b.diskOff+b.diskLen]...), data[b.pageOff:b.pageOff+b.pageLen]...))
		if err := decodeBasement(im.b[:b.diskLen], im.b[b.diskLen:], b, pageBase(data), im, crc32.ChecksumIEEE(im.b)); err != nil {
			t.Fatal(err)
		}
		s.keep(im)
		want := leaf.basements[bi].entries
		if len(b.entries) != len(want) {
			t.Fatalf("basement %d: %d entries, want %d", bi, len(b.entries), len(want))
		}
		var vals []Value
		for i := range want {
			if !bytes.Equal(b.entries[i].key, want[i].key) || !bytes.Equal(b.entries[i].val.Bytes(), want[i].val.Bytes()) {
				t.Fatalf("basement %d entry %d did not decode to what was encoded", bi, i)
			}
			vals = append(vals, b.entries[i].val)
		}
		leafOf := &node{basements: []*basement{b}}
		drain(fmt.Sprintf("basement %d", bi), im, vals, func() string { return nodeKeys(leafOf) })
	}

	data = serializeNode(env, &cfg, interior, nil)
	shell, _, err = decodeShell(data)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range shell.bufs {
		b := &shell.bufs[ci]
		im := pooled(data[b.diskOff : b.pageOff+b.pageLen])
		if err := decodePartition(im.b[:b.diskLen], im.b[b.diskLen:], b, im, crc32.ChecksumIEEE(im.b)); err != nil {
			t.Fatal(err)
		}
		s.keep(im)
		want := interior.bufs[ci].points
		if len(b.points) != len(want) || len(b.ranges) != 0 {
			t.Fatalf("partition %d: %d messages, want %d", ci, b.len(), len(want))
		}
		var vals []Value
		for i, m := range b.points {
			if !bytes.Equal(m.Key, want[i].Key) || m.MSN != want[i].MSN || !bytes.Equal(m.Val.Bytes(), want[i].Val.Bytes()) {
				t.Fatalf("partition %d message %d did not decode to what was encoded", ci, i)
			}
			vals = append(vals, m.Val)
		}
		nodeOf := &node{height: 1, bufs: []buffer{*b}}
		drain(fmt.Sprintf("partition %d", ci), im, vals, func() string { return nodeKeys(nodeOf) })
	}
}

// nodeValues returns every value a node holds: its leaf entries' and its
// buffered messages'.
func nodeValues(n *node) []Value {
	var vals []Value
	for _, e := range leafEntries(n) {
		vals = append(vals, e.val)
	}
	for ci := range n.bufs {
		for _, m := range n.bufs[ci].points {
			vals = append(vals, m.Val)
		}
	}
	return vals
}

// nodeKeys renders everything of a node but its values.
func nodeKeys(n *node) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "h%d id%d %q %v;", n.height, n.id, n.pivots, n.children)
	for _, bm := range n.basements {
		fmt.Fprintf(&b, "[%q]", bm.firstKey)
		for _, e := range bm.entries {
			fmt.Fprintf(&b, "%q;", e.key)
		}
	}
	for ci := range n.bufs {
		for _, m := range n.bufs[ci].points {
			fmt.Fprintf(&b, "%d:%d/%d %q@%d;", ci, m.Type, m.MSN, m.Key, m.Off)
		}
	}
	return b.String()
}

// TestPrepareNodeImageReusesPool is the image pool's allocation guard: with
// a warm pool, serializing a node for write takes the buffer from the pool
// instead of allocating an image, and a recycled buffer's stale bytes never
// reach the image. A sync.Pool may drop what it is given (the race
// detector drops a quarter of all puts on purpose), so the guard asks that
// most calls, not all, allocate less than half an image.
func TestPrepareNodeImageReusesPool(t *testing.T) {
	_, s := testStore(t, nil)
	var entries []entry
	for i := 0; i < 200; i++ {
		entries = append(entries, entry{key: []byte(fmt.Sprintf("f%04d", i)), val: InlineValue(bytes.Repeat([]byte{byte(i)}, 300))})
	}
	leaf := mkLeaf(entries, 16<<10)
	want := serializeNode(s.env, &s.cfg, leaf, nil)
	const calls = 100
	reused := 0
	var before, after runtime.MemStats
	for i := 0; i < calls; i++ {
		runtime.ReadMemStats(&before)
		img := s.prepareNodeImage(s.Data(), leaf)
		runtime.ReadMemStats(&after)
		if after.TotalAlloc-before.TotalAlloc < uint64(len(want))/2 {
			reused++
		}
		if !bytes.Equal(img.data, want) {
			t.Fatal("image from a recycled buffer differs from a fresh one")
		}
		for i := range img.data {
			img.data[i] = 0xa5 // what the next user of the buffer finds
		}
		s.alloc.FreeSized(img.buf)
		putImage(img.img)
	}
	if reused < calls/2 {
		t.Fatalf("only %d of %d calls took their image buffer from the pool", reused, calls)
	}
}

// TestKeyFilters: an interior shell carries a key filter per child buffer
// that never rules out a key the buffer holds a point message for and
// rules out most others; a buffer holding a range delete has none; and
// when the filters would not fit in the header region, they shrink or go
// rather than push the shell past it.
func TestKeyFilters(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	build := func(children, msgs int) *node {
		n := &node{id: 9, height: 1, bufs: make([]buffer, children)}
		for c := 0; c < children; c++ {
			n.children = append(n.children, nodeID(10+c))
			if c > 0 {
				n.pivots = append(n.pivots, []byte(fmt.Sprintf("k%02d", c)))
			}
			for i := 0; i < msgs; i++ {
				n.bufs[c].insert(&Msg{Type: MsgInsert, MSN: MSN(c*msgs + i + 1), Key: []byte(fmt.Sprintf("k%02d/%06d", c, 2*i)), Val: InlineValue([]byte("v"))})
			}
		}
		return n
	}
	n := build(4, 200)
	n.bufs[3].insert(&Msg{Type: MsgRangeDelete, MSN: 1000, Key: []byte("k03/"), EndKey: []byte("k03/5")})
	data := serializeNode(env, &cfg, n, nil)
	shell, _, err := decodeShell(data[:headerRegion])
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		b := &shell.bufs[c]
		if want := (filterBitsPerKey*200 + 7) / 8; len(b.filter) != want {
			t.Fatalf("buffer %d: %d-byte filter, want %d", c, len(b.filter), want)
		}
		ruled := 0
		for i := 0; i < 200; i++ {
			if !b.mayHold([]byte(fmt.Sprintf("k%02d/%06d", c, 2*i))) {
				t.Fatalf("buffer %d: filter rules out a key it holds", c)
			}
			if !b.mayHold([]byte(fmt.Sprintf("k%02d/%06d", c, 2*i+1))) {
				ruled++
			}
		}
		if ruled < 180 {
			t.Fatalf("buffer %d: filter ruled out %d of 200 absent keys", c, ruled)
		}
	}
	if b := &shell.bufs[3]; len(b.filter) != 0 || !b.mayHold([]byte("k03/000001")) {
		t.Fatalf("buffer with a range delete: %d-byte filter", len(b.filter))
	}

	// 24 000 messages leave about five bits each in the header region,
	// 40 000 fewer than four: the filters shrink, then go.
	for _, c := range []struct{ msgs, bits int }{{1500, 5}, {2500, 0}} {
		big := serializeNode(env, &cfg, build(16, c.msgs), nil)
		if shellEnd := int(binary.BigEndian.Uint32(big[32:])); shellEnd > headerRegion {
			t.Fatalf("%d messages a buffer: filters pushed the shell to %d bytes", c.msgs, shellEnd)
		}
		bigShell, _, err := decodeShell(big[:headerRegion])
		if err != nil {
			t.Fatal(err)
		}
		for ci := range bigShell.bufs {
			b := &bigShell.bufs[ci]
			if want := (c.bits*c.msgs + 7) / 8; len(b.filter) != want {
				t.Fatalf("%d messages a buffer: buffer %d has a %d-byte filter, want %d", c.msgs, ci, len(b.filter), want)
			}
			for i := 0; i < c.msgs; i += 97 {
				if !b.mayHold([]byte(fmt.Sprintf("k%02d/%06d", ci, 2*i))) {
					t.Fatalf("%d messages a buffer: buffer %d rules out a key it holds", c.msgs, ci)
				}
			}
		}
	}
}

// BenchmarkDecodePartition decodes one child buffer of 208 buffered
// inserts, the partition a cold point read loads from an interior node,
// from its serialized small section and page range.
func BenchmarkDecodePartition(b *testing.B) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	n := &node{id: 9, height: 1, children: []nodeID{10, 11}, pivots: [][]byte{k(1000)}, bufs: make([]buffer, 2)}
	for i := 0; i < 208; i++ {
		n.bufs[0].insert(&Msg{Type: MsgInsert, MSN: MSN(i + 1), Key: k(i), Val: InlineValue(v(i, 4+i%3*60))})
	}
	data := serializeNode(env, &cfg, n, nil)
	shell, _, err := decodeShell(data)
	if err != nil {
		b.Fatal(err)
	}
	p := &shell.bufs[0]
	small, pages := data[p.diskOff:p.diskOff+p.diskLen], data[p.pageOff:p.pageOff+p.pageLen]
	crc := crc32.Update(crc32.ChecksumIEEE(small), crc32.IEEETable, pages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.missing, p.points, p.ranges, p.bytes = true, nil, nil, 0
		if err := decodePartition(small, pages, p, nil, crc); err != nil {
			b.Fatal(err)
		}
	}
	if len(p.points) != 208 {
		b.Fatalf("decoded %d messages, want 208", len(p.points))
	}
}
