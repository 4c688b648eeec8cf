package betree

import (
	"bytes"
	"encoding/binary"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"betrfs/internal/kmem"
)

// fuzzCapacity is the node-file size the loader fuzz targets load against.
const fuzzCapacity = 1 << 20

// FuzzLoadBlockTable feeds arbitrary bytes to the block-table loader. Every
// input must give an error, or a table whose mapped extents, defects and
// free list tile [0, capacity) exactly and that loads back unchanged from
// its own serialization. Loading may not allocate beyond what the input's
// length justifies, whatever its counts claim. The seed corpus in
// testdata/fuzz holds a valid table with a defect list and five bad ones
// (the bad- seeds, which TestCraftedLoaderSeedsRejected requires to fail):
// an entry count whose byte size wraps, an extent of negative length, one
// past the capacity, a node mapped twice, and a defect count whose byte
// size wraps.
func FuzzLoadBlockTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		load := func() (bt *blockTable, err error, allocated uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			bt, err = loadBlockTable(fuzzCapacity, data)
			runtime.ReadMemStats(&after)
			return bt, err, after.TotalAlloc - before.TotalAlloc
		}
		// Two maps and a slice per entry, in size classes: well under
		// 64 bytes of heap per input byte.
		justified := uint64(64*len(data) + 16<<10)
		bt, err, allocated := load()
		// The fuzzing engine's own goroutines may allocate between the two
		// readings; a load that over-allocates does so every time.
		for try := 0; allocated > justified && try < 3; try++ {
			bt, err, allocated = load()
		}
		if allocated > justified {
			t.Fatalf("loading %d bytes allocated %d", len(data), allocated)
		}
		if err != nil {
			return
		}
		checkTiles(t, bt)
		back, err := loadBlockTable(fuzzCapacity, bt.serialize())
		if err != nil {
			t.Fatalf("serialized table does not load: %v", err)
		}
		checkSameTable(t, back, bt)
	})
}

// FuzzLoadSuperblock feeds arbitrary superblock payloads to the decoder a
// mount uses, over two node files of fuzzCapacity bytes. Every input must
// give an error, or a superblock whose two block tables tile their files
// (as in FuzzLoadBlockTable) and that decodes back unchanged from its own
// encoding. The seed corpus holds a valid payload and four bad ones (the
// bad- seeds): a payload too short for the fields read before the trees,
// a block table length past the end of the payload, a root its block
// table does not map, and a next node id that a mapped node already has.
func FuzzLoadSuperblock(f *testing.F) {
	caps := [2]int64{fuzzCapacity, fuzzCapacity}
	f.Fuzz(func(t *testing.T, payload []byte) {
		sb, err := decodeSuperblock(payload, caps)
		if err != nil {
			return
		}
		for _, st := range sb.trees {
			checkTiles(t, st.bt)
		}
		blob := sb.encode(7)
		gen, plen, ok := superHeader(blob)
		if !ok || gen != 7 || superHdrSize+plen+4 != len(blob) {
			t.Fatalf("encoded header (gen %d, %d payload bytes, ok %v) does not frame its %d-byte slot", gen, plen, ok, len(blob))
		}
		back, err := decodeSuperblock(blob[superHdrSize:superHdrSize+plen], caps)
		if err != nil {
			t.Fatalf("encoded superblock does not decode: %v", err)
		}
		if back.nextMSN != sb.nextMSN || back.hint != sb.hint {
			t.Fatalf("round trip changed msn/hint: %d %+v, want %d %+v", back.nextMSN, back.hint, sb.nextMSN, sb.hint)
		}
		for i := range sb.trees {
			if back.trees[i].root != sb.trees[i].root || back.trees[i].next != sb.trees[i].next {
				t.Fatalf("tree %d: round trip changed root/next", i)
			}
			checkSameTable(t, back.trees[i].bt, sb.trees[i].bt)
		}
	})
}

// checkTiles fails unless bt's mapped extents, defects and free list are
// each non-empty and together cover [0, capacity) once.
func checkTiles(t *testing.T, bt *blockTable) {
	t.Helper()
	var all []extent
	for _, e := range bt.entries {
		all = append(all, e)
	}
	all = append(all, bt.defects...)
	all = append(all, bt.free...)
	sort.Slice(all, func(i, j int) bool { return all[i].off < all[j].off })
	pos := int64(0)
	for _, e := range all {
		if e.off != pos || e.len <= 0 {
			t.Fatalf("extent [%d, +%d) where [%d, ...) was expected", e.off, e.len, pos)
		}
		pos += e.len
	}
	if pos != bt.capacity {
		t.Fatalf("extents end at %d, capacity %d", pos, bt.capacity)
	}
}

func checkSameTable(t *testing.T, got, want *blockTable) {
	t.Helper()
	if !maps.Equal(got.entries, want.entries) || !slices.Equal(got.defects, want.defects) || !slices.Equal(got.free, want.free) {
		t.Fatalf("round trip changed the table:\n got  %v %v %v\n want %v %v %v",
			got.entries, got.defects, got.free, want.entries, want.defects, want.free)
	}
}

// TestCraftedLoaderSeedsRejected requires every bad- seed of the two loader
// fuzz targets and of the two shell targets to be rejected with an error.
func TestCraftedLoaderSeedsRejected(t *testing.T) {
	load := map[string]func([]byte) error{
		"FuzzLoadBlockTable": func(b []byte) error {
			_, err := loadBlockTable(fuzzCapacity, b)
			return err
		},
		"FuzzLoadSuperblock": func(b []byte) error {
			_, err := decodeSuperblock(b, [2]int64{fuzzCapacity, fuzzCapacity})
			return err
		},
		"FuzzDecodeLeafShell": func(b []byte) error {
			_, _, err := decodeShell(b)
			return err
		},
		"FuzzDecodeInteriorShell": func(b []byte) error {
			_, _, err := decodeShell(b)
			return err
		},
	}
	for target, fn := range load {
		paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "bad-*"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: no bad- seeds (%v)", target, err)
		}
		for _, p := range paths {
			if err := fn(readSeed(t, p)); err == nil {
				t.Errorf("%s: %s loaded without error", target, filepath.Base(p))
			}
		}
	}
}

// readSeed returns the []byte argument of a one-argument corpus file.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
	if !ok || len(lines) != 2 {
		t.Fatalf("%s: not a one-argument []byte corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestSuperblockSlotOverrun writes a slot header with the newest generation
// into the second slot, its payload length the slot size less the header:
// header, payload and crc together run 4 bytes past the slot. The slot
// must count as invalid and the mount must come up from the other slot,
// not read past the end of the superblock region.
func TestSuperblockSlotOverrun(t *testing.T) {
	env, _, backend, s := corruptStore(t, nil)
	for i := 0; i < 200; i++ {
		s.Data().Put(k(i), v(i, 64), LogAuto)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.generation%2 == 1 {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	hdr := make([]byte, superHdrSize)
	binary.BigEndian.PutUint32(hdr, superMagic)
	binary.BigEndian.PutUint64(hdr[4:], s.generation+100)
	binary.BigEndian.PutUint32(hdr[12:], superSlotSize-superHdrSize)
	if _, _, ok := superHeader(hdr); ok {
		t.Fatal("a payload that runs past its slot was accepted")
	}
	if err := backend.File("super").WriteAt(hdr, superSlotSize); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(env, kmem.New(env, true), s.cfg, backend)
	if err != nil {
		t.Fatalf("open with an overrunning slot: %v", err)
	}
	for i := 0; i < 200; i++ {
		val, ok, err := s2.Data().Get(k(i))
		if err != nil || !ok || !bytes.Equal(val, v(i, 64)) {
			t.Fatalf("key %d lost (ok=%v err=%v)", i, ok, err)
		}
	}
}
