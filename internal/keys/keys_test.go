package keys

import (
	"bytes"
	"encoding/binary"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	paths := []string{"", "a", "a/b", "a/b/c.txt", "usr/src/linux/fs/ext4/inode.c"}
	for _, p := range paths {
		if got := Decode(Encode(p)); got != p {
			t.Errorf("Decode(Encode(%q)) = %q", p, got)
		}
	}
}

func TestCleanNormalizes(t *testing.T) {
	cases := map[string]string{
		"/a/b/":   "a/b",
		"a//b":    "a/b",
		"/":       "",
		"":        "",
		"./a/./b": "a/b",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

// FuzzClean checks Clean against its definition, Split joined by "/", and
// that cleaning is idempotent. The seed corpus in testdata/fuzz holds the
// root in both spellings, a doubled slash, "." components and a leading
// and a trailing slash.
func FuzzClean(f *testing.F) {
	f.Fuzz(func(t *testing.T, p string) {
		got := Clean(p)
		if want := strings.Join(Split(p), "/"); got != want {
			t.Fatalf("Clean(%q) = %q, want %q", p, got, want)
		}
		if again := Clean(got); again != got {
			t.Fatalf("Clean(Clean(%q)) = %q, want %q", p, again, got)
		}
	})
}

// TestCleanOfCleanPathAllocatesNothing: the namespace code cleans every
// path it is handed, and nearly all of them are clean already.
func TestCleanOfCleanPathAllocatesNothing(t *testing.T) {
	for _, p := range []string{"", "a", "a/b/c.txt", "usr/src/linux/fs/ext4/inode.c", "a/../b"} {
		if n := testing.AllocsPerRun(100, func() { _ = Clean(p) }); n != 0 {
			t.Errorf("Clean(%q) makes %v allocations, want 0", p, n)
		}
	}
}

func TestDFSOrder(t *testing.T) {
	// Bytewise order of encoded keys must equal depth-first traversal
	// order: a directory sorts immediately before its contents, and the
	// whole subtree is contiguous.
	paths := []string{
		"a", "a/b", "a/b/x", "a/b/y", "a/bc", "a/c", "ab", "b",
	}
	enc := make([][]byte, len(paths))
	for i, p := range paths {
		enc[i] = Encode(p)
	}
	if !sort.SliceIsSorted(enc, func(i, j int) bool {
		return bytes.Compare(enc[i], enc[j]) < 0
	}) {
		for _, p := range paths {
			t.Logf("%q -> %x", p, Encode(p))
		}
		t.Fatal("encoded keys are not in DFS order")
	}
}

func TestSubtreeRangeCoversDescendantsOnly(t *testing.T) {
	lo, hi := SubtreeRange("a/b")
	in := []string{"a/b/x", "a/b/x/y", "a/b/zzz"}
	out := []string{"a", "a/b", "a/bc", "a/c", "b", "a/b!"}
	for _, p := range in {
		k := Encode(p)
		if bytes.Compare(k, lo) < 0 || bytes.Compare(k, hi) >= 0 {
			t.Errorf("%q should be inside subtree range of a/b", p)
		}
	}
	for _, p := range out {
		k := Encode(p)
		if bytes.Compare(k, lo) >= 0 && bytes.Compare(k, hi) < 0 {
			t.Errorf("%q should be outside subtree range of a/b", p)
		}
	}
}

func TestSubtreeRangeCoversDataKeys(t *testing.T) {
	lo, hi := SubtreeRange("a/b")
	for _, blk := range []uint64{0, 1, 1 << 40} {
		k := DataKey("a/b/file", blk)
		if bytes.Compare(k, lo) < 0 || bytes.Compare(k, hi) >= 0 {
			t.Errorf("data key for block %d outside subtree range", blk)
		}
	}
}

func TestFileDataRangeAndBlockOrder(t *testing.T) {
	lo, hi := FileDataRange("f")
	prev := []byte(nil)
	for blk := uint64(0); blk < 300; blk += 7 {
		k := DataKey("f", blk)
		if bytes.Compare(k, lo) < 0 || bytes.Compare(k, hi) >= 0 {
			t.Fatalf("block %d outside file range", blk)
		}
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("block keys out of order at %d", blk)
		}
		if want := binary.BigEndian.AppendUint64([]byte("f\x00"), blk); !bytes.Equal(k, want) {
			t.Fatalf("DataKey(f, %d) = %x, want %x", blk, k, want)
		}
		prev = k
	}
}

func TestIsDirectChild(t *testing.T) {
	dir := Encode("a/b")
	if !IsDirectChild(dir, Encode("a/b/c")) {
		t.Error("a/b/c should be a direct child of a/b")
	}
	if IsDirectChild(dir, Encode("a/b/c/d")) {
		t.Error("a/b/c/d is not a direct child of a/b")
	}
	if IsDirectChild(dir, Encode("a/bc")) {
		t.Error("a/bc is not a child of a/b")
	}
	root := Encode("")
	if !IsDirectChild(root, Encode("top")) {
		t.Error("top should be a direct child of root")
	}
	if IsDirectChild(root, Encode("top/x")) {
		t.Error("top/x is not a direct child of root")
	}
}

func TestParentAndName(t *testing.T) {
	cases := []struct{ in, parent, name string }{
		{"a/b/c", "a/b", "c"},
		{"a", "", "a"},
		{"", "", ""},
		{"/x/y/", "x", "y"},
	}
	for _, c := range cases {
		p, n := ParentAndName(c.in)
		if p != c.parent || n != c.name {
			t.Errorf("ParentAndName(%q) = %q,%q want %q,%q", c.in, p, n, c.parent, c.name)
		}
	}
}

func TestJoin(t *testing.T) {
	if Join("", "a") != "a" || Join("a", "b") != "a/b" {
		t.Fatal("Join misbehaves")
	}
}

func TestRewritePrefix(t *testing.T) {
	old := Encode("a/b")
	new_ := Encode("x")
	k := DataKey("a/b/f", 3)
	got := RewritePrefix(k, old, new_)
	want := DataKey("x/f", 3)
	if !bytes.Equal(got, want) {
		t.Fatalf("RewritePrefix = %x, want %x", got, want)
	}
}

func TestRewritePrefixPanicsOutsideRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RewritePrefix(Encode("q/r"), Encode("a"), Encode("b"))
}

func TestCommonPrefix(t *testing.T) {
	if CommonPrefix([]byte("abcd"), []byte("abxy")) != 2 {
		t.Fatal("common prefix of abcd/abxy should be 2")
	}
	if CommonPrefix([]byte("ab"), []byte("ab")) != 2 {
		t.Fatal("identical keys share full prefix")
	}
	if CommonPrefix(nil, []byte("a")) != 0 {
		t.Fatal("empty key shares nothing")
	}
}

// Property: encoded order of random paths always groups subtrees
// contiguously — every key between the first and last descendant of a
// directory is itself a descendant.
func TestSubtreeContiguityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		dirs := []string{"d0", "d0/d1", "d2", "d2/d3/d4"}
		var all []string
		for i := 0; i < 40; i++ {
			d := dirs[(int(seed)+i)%len(dirs)]
			all = append(all, d+"/f"+strings.Repeat("x", i%5)+string(rune('a'+i%26)))
		}
		enc := make([][]byte, len(all))
		for i, p := range all {
			enc[i] = Encode(p)
		}
		sort.Slice(enc, func(i, j int) bool { return bytes.Compare(enc[i], enc[j]) < 0 })
		for _, dir := range dirs {
			lo, hi := SubtreeRange(dir)
			inside := false
			exited := false
			for _, k := range enc {
				in := bytes.Compare(k, lo) >= 0 && bytes.Compare(k, hi) < 0
				if in && exited {
					return false // subtree not contiguous
				}
				if inside && !in {
					exited = true
				}
				inside = in
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDataKeyAllocs guards the data path's key cost: a clean path's data
// key is one allocation, and an unclean path encodes like its clean form.
func TestDataKeyAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { DataKey("usr/src/linux/fs/ext4/inode.c", 7) }); n != 1 {
		t.Fatalf("DataKey allocates %v times, want 1", n)
	}
	if got, want := DataKey("/a//b/./c/", 9), DataKey("a/b/c", 9); !bytes.Equal(got, want) {
		t.Fatalf("DataKey of an unclean path = %x, want %x", got, want)
	}
	k := DataKey("a/b", 1)
	SetDataKeyBlock(k, 1<<40)
	if want := DataKey("a/b", 1<<40); !bytes.Equal(k, want) {
		t.Fatalf("SetDataKeyBlock = %x, want %x", k, want)
	}
}
