package betree

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

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
	data := serializeNode(env, &cfg, n)
	if len(data)%4096 != 0 {
		t.Fatalf("serialized length %d not block aligned", len(data))
	}
	got, err := deserializeNode(env, &cfg, data)
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
		data := serializeNode(env, &cfg, n)
		got, err := deserializeNode(env, &cfg, data)
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

	data := serializeNode(env, &cfg, n)
	got, err := deserializeNode(env, &cfg, data)
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
	data := serializeNode(env, &cfg, n)
	data[len(data)/2] ^= 0xff
	if _, err := deserializeNode(env, &cfg, data); err == nil {
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
	data := serializeNode(env, &cfg, n)
	shell, consumed, err := decodeLeafShell(data)
	if err != nil {
		t.Fatal(err)
	}
	if consumed > headerRegion {
		t.Skipf("directory larger than header region (%d)", consumed)
	}
	if len(shell) != len(n.basements) {
		t.Fatalf("shell has %d basements, want %d", len(shell), len(n.basements))
	}
	// Load just one basement and verify its entries.
	bi := len(shell) / 2
	b := shell[bi]
	if err := decodeBasement(data[b.diskOff:b.diskOff+b.diskLen], data[b.pageOff:b.pageOff+b.pageLen], b, pageBase(data)); err != nil {
		t.Fatal(err)
	}
	want := n.basements[bi].entries
	got := shell[bi].entries
	if len(got) != len(want) || !bytes.Equal(got[0].key, want[0].key) {
		t.Fatal("partial basement decode mismatch")
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
		got, err := deserializeNode(env, &cfg, serializeNode(env, &cfg, n))
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
	if bt.usedBytes() < 8192 {
		t.Fatal("old extent freed before checkpoint commit")
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
	if got.usedBytes() != bt.usedBytes() {
		t.Fatalf("used bytes %d != %d (free list rebuild)", got.usedBytes(), bt.usedBytes())
	}
}

func TestLiftingShrinksNodes(t *testing.T) {
	env := sim.NewEnv(1)
	var entries []entry
	for i := 0; i < 400; i++ {
		entries = append(entries, entry{
			key: []byte(fmt.Sprintf("usr/src/linux/fs/ext4/inode%04d.c", i)),
			val: InlineValue(make([]byte, 20)),
		})
	}
	lifted := DefaultConfig()
	lifted.Lifting = true
	plain := DefaultConfig()
	plain.Lifting = false
	nl := mkLeaf(append([]entry{}, entries...), 8<<10)
	np := mkLeaf(append([]entry{}, entries...), 8<<10)
	dl := serializeNode(env, &lifted, nl)
	dp := serializeNode(env, &plain, np)
	if len(dl) >= len(dp) {
		t.Fatalf("lifting did not shrink the node: %d >= %d", len(dl), len(dp))
	}
	// And it must round trip.
	got, err := deserializeNode(env, &lifted, dl)
	if err != nil {
		t.Fatal(err)
	}
	ge := leafEntries(got)
	if len(ge) != len(entries) || !bytes.Equal(ge[7].key, []byte("usr/src/linux/fs/ext4/inode0007.c")) {
		t.Fatal("lifted keys did not round trip")
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	var entries []entry
	for i := 0; i < 200; i++ {
		entries = append(entries, entry{
			key: []byte(fmt.Sprintf("k%05d", i)),
			val: InlineValue(bytes.Repeat([]byte{byte(i % 7)}, 512)),
		})
	}
	n := mkLeaf(entries, 16<<10)
	cfg := DefaultConfig()
	raw := serializeNode(env, &cfg, n)
	comp := compressNode(env, raw)
	if len(comp) >= len(raw) {
		t.Fatalf("compression did not shrink a redundant node: %d >= %d", len(comp), len(raw))
	}
	back, err := maybeDecompressNode(env, comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, raw) {
		t.Fatal("decompression mismatch")
	}
	// Plain images pass through.
	same, err := maybeDecompressNode(env, raw)
	if err != nil || !bytes.Equal(same, raw) {
		t.Fatal("plain image did not pass through")
	}
}

func TestCompressedStoreEndToEnd(t *testing.T) {
	_, s := testStore(t, func(c *Config) { c.Compression = true })
	tr := s.Meta()
	for i := 0; i < 3000; i++ {
		tr.Put(k(i), v(i, 64), LogAuto)
	}
	s.Checkpoint()
	s.DropCleanCaches()
	for i := 0; i < 3000; i += 111 {
		got, ok, _ := tr.Get(k(i))
		if !ok || !bytes.Equal(got, v(i, 64)) {
			t.Fatalf("key %d lost under compression", i)
		}
	}
}

// TestDecodeDoesNotAliasImage decodes node images and basements, then
// overwrites the bytes they were decoded from: the decoded nodes must not
// change, because full-image read buffers are recycled (imagePool) and a
// basement's re-read reuses its buffer. It also checks encodedSizeBound.
func TestDecodeDoesNotAliasImage(t *testing.T) {
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
		interior.bufs[i/20].insert(&Msg{Type: MsgInsert, MSN: MSN(i + 1), Key: []byte(fmt.Sprintf("k%03d", i)), Val: InlineValue(bytes.Repeat([]byte{byte(i)}, 100*i))})
	}
	overwrite := func(b []byte) {
		for i := range b {
			b[i] = 0xa5
		}
	}

	for _, n := range []*node{leaf, interior} {
		img := serializeNode(env, &cfg, n)
		if bound := encodedSizeBound(&cfg, n); len(img) > bound || bound >= len(img)+2*blockAlign+8 {
			t.Errorf("height %d: encodedSizeBound %d, image %d bytes", n.height, bound, len(img))
		}
		want := append([]byte(nil), img...)
		got, err := deserializeNode(env, &cfg, img)
		if err != nil {
			t.Fatal(err)
		}
		overwrite(img)
		if !bytes.Equal(serializeNode(env, &cfg, got), want) {
			t.Errorf("height %d: decoded node changed when its image was overwritten", n.height)
		}
	}

	img := serializeNode(env, &cfg, leaf)
	shell, _, err := decodeLeafShell(img)
	if err != nil {
		t.Fatal(err)
	}
	for bi, b := range shell {
		small := append([]byte(nil), img[b.diskOff:b.diskOff+b.diskLen]...)
		pages := append([]byte(nil), img[b.pageOff:b.pageOff+b.pageLen]...)
		if err := decodeBasement(small, pages, b, pageBase(img)); err != nil {
			t.Fatal(err)
		}
		overwrite(small)
		overwrite(pages)
		want := leaf.basements[bi].entries
		if len(b.entries) != len(want) {
			t.Fatalf("basement %d: %d entries, want %d", bi, len(b.entries), len(want))
		}
		for i := range want {
			if !bytes.Equal(b.entries[i].key, want[i].key) || !bytes.Equal(b.entries[i].val.Bytes(), want[i].val.Bytes()) {
				t.Fatalf("basement %d entry %d changed when its buffers were overwritten", bi, i)
			}
		}
	}
}
