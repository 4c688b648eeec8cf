package fsserve

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"betrfs/internal/fsrpc"
)

// chainRowRE matches one row of the DESIGN.md §13.5 chain table:
// "| MKDIR, RMDIR   | parent, own              |".
var chainRowRE = regexp.MustCompile(`(?m)^\s*\| ([A-Z]+(?:, [A-Z]+)*) +\| ((?:handle|parent|own|new parent)(?:, (?:handle|parent|own|new parent))*) +\|$`)

// TestChainSpecMatchesCode diffs the §13.5 chain table against chainKeys
// in both directions: every row's ops must join exactly the chains the row
// names, and every file-class op that chainKeys orders must have a row.
func TestChainSpecMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	spec := string(data)
	i, j := strings.Index(spec, "### 13.5"), strings.Index(spec, "### 13.6")
	if i < 0 || j < i {
		t.Fatal("cannot locate §13.5")
	}
	rows := chainRowRE.FindAllStringSubmatch(spec[i:j], -1)
	if len(rows) == 0 {
		t.Fatal("§13.5 chain table matched no rows")
	}

	byName := map[string]fsrpc.Op{}
	for _, op := range fsrpc.Ops {
		byName[strings.ToUpper(op.String())] = op
	}
	probe := func(op fsrpc.Op) *fsrpc.Request {
		return &fsrpc.Request{Op: op, Handle: 7, Path: "a/b", Path2: "c/d"}
	}
	chainOf := map[string]uint64{
		"handle":     7 | handleKeyBit,
		"parent":     dirKey("a"),
		"own":        dirKey("a/b"),
		"new parent": dirKey("c"),
	}
	sorted := func(ks []uint64) []uint64 {
		sort.Slice(ks, func(a, b int) bool { return ks[a] < ks[b] })
		return ks
	}

	documented := map[fsrpc.Op]bool{}
	for _, row := range rows {
		var want []uint64
		for _, c := range strings.Split(row[2], ", ") {
			want = append(want, chainOf[c])
		}
		want = sorted(want)
		for _, name := range strings.Split(row[1], ", ") {
			op, ok := byName[name]
			if !ok {
				t.Errorf("§13.5 row names %s, which is not an op", name)
				continue
			}
			documented[op] = true
			keys, n := chainKeys(probe(op))
			got := sorted(append([]uint64{}, keys[:n]...))
			if len(got) != len(want) {
				t.Errorf("%s joins %d chains in code, §13.5 says %q", name, n, row[2])
				continue
			}
			for k := range got {
				if got[k] != want[k] {
					t.Errorf("%s: chains in code differ from §13.5's %q", name, row[2])
					break
				}
			}
		}
	}
	for _, op := range fsrpc.Ops {
		if _, n := chainKeys(probe(op)); n > 0 && !op.Block() && !documented[op] {
			t.Errorf("%s is ordered by chainKeys but has no row in the §13.5 table", op)
		}
	}
}
