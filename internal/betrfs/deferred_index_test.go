package betrfs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"betrfs/internal/keys"
	"betrfs/internal/vfs"
)

// indexConfigs are the two ways checkEmpty consults the deferred creates:
// v0.6 decides emptiness by the nlink counts, and v0.6 without
// RangeMessages by a tree query. No Table 3 rung has conditional logging
// without the nlink counts (RG sits below CL), so the second is v0.6 with
// RG off.
var indexConfigs = []struct {
	name   string
	mutate func(*Config)
}{
	{"v0.6", nil},
	{"v0.6-without-nlink", func(c *Config) { c.RangeMessages = false }},
}

// checkDirIndex verifies that the per-directory queues are the
// creation-order queue split by parent: each holds exactly the deferred
// creates whose parent it is, in creation order, with consistent back
// links, and no directory keeps an empty queue.
func checkDirIndex(t *testing.T, fs *FS) {
	t.Helper()
	want := map[string][]*deferredCreate{}
	n := 0
	for dc := fs.created.oldest; dc != nil; dc = dc.created.next {
		parent, name := keys.ParentAndName(dc.path)
		if dc.parent != parent || dc.name != name {
			t.Fatalf("%q recorded as %q in %q", dc.path, dc.name, dc.parent)
		}
		want[parent] = append(want[parent], dc)
		n++
	}
	if n != len(fs.pending) {
		t.Fatalf("creation queue holds %d creates, path index %d", n, len(fs.pending))
	}
	if len(fs.dirs) != len(want) {
		t.Fatalf("%d directories indexed, %d have deferred creates", len(fs.dirs), len(want))
	}
	for parent, q := range fs.dirs {
		var got []*deferredCreate
		var prev *deferredCreate
		for dc := q.oldest; dc != nil; dc = dc.sibling.next {
			if dc.sibling.prev != prev {
				t.Fatalf("%q: broken back link at %q", parent, dc.path)
			}
			got = append(got, dc)
			prev = dc
		}
		if q.newest != prev {
			t.Fatalf("%q: queue tail is not its last entry", parent)
		}
		if !slices.Equal(got, want[parent]) {
			t.Fatalf("%q: queue differs from the creation queue filtered by parent", parent)
		}
	}
}

// filterReadDir is the listing ReadDir gave before the per-directory
// index: the tree's direct children, then every deferred create on the
// mount filtered by parent, in creation order. It changes nothing.
func filterReadDir(t *testing.T, fs *FS, path string) []vfs.DirEntry {
	t.Helper()
	dirKey := keys.Encode(path)
	lo, hi := keys.SubtreeRange(path)
	var out []vfs.DirEntry
	entry := func(p string, a vfs.Attr) vfs.DirEntry {
		_, name := keys.ParentAndName(p)
		e := vfs.DirEntry{Name: name, Dir: a.Dir}
		if fs.cfg.ReaddirInstantiates {
			e.Handle, e.Attr, e.Known = p, a, true
		}
		return e
	}
	if err := fs.store.Meta().Scan(lo, hi, func(k, v []byte) bool {
		if keys.IsDirectChild(dirKey, k) {
			a, err := decodeAttr(v)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, entry(keys.Decode(k), a))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for dc := fs.created.oldest; dc != nil; dc = dc.created.next {
		if parent, _ := keys.ParentAndName(dc.path); parent == path {
			out = append(out, entry(dc.path, dc.attr))
		}
	}
	return out
}

// TestReadDirIgnoresOtherDirectoriesPendingCreates: a listing costs what
// its directory holds. Its allocations do not change when 4 000 creates
// are deferred in other directories, and over a seeded random program the
// per-directory queues stay the creation queue split by parent while every
// directory lists exactly what the old filter over all deferred creates
// gave, order included.
func TestReadDirIgnoresOtherDirectoriesPendingCreates(t *testing.T) {
	t.Run("allocs", func(t *testing.T) {
		_, fs := newFS(t, nil)
		d, _, _ := fs.Create(fs.Root(), "d", true)
		sub, _, _ := fs.Create(d, "sub", true)
		other, _, _ := fs.Create(fs.Root(), "other", true)
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 9; i++ {
			h, a, err := fs.Create(d, fmt.Sprintf("f%d", i), false)
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				fs.WriteAttr(h, a)
			}
		}
		readDir := func() float64 {
			return testing.AllocsPerRun(20, func() {
				if ents, err := fs.ReadDir(d); err != nil || len(ents) != 10 {
					t.Fatalf("listing of d: %d entries, %v", len(ents), err)
				}
			})
		}
		quiet := readDir()
		for i := 0; i < 4000; i++ {
			parent := []vfs.Handle{fs.Root(), other, sub}[i%3]
			if _, _, err := fs.Create(parent, fmt.Sprintf("g%04d", i), false); err != nil {
				t.Fatal(err)
			}
		}
		if len(fs.pending) < 4000 {
			t.Fatalf("only %d creates deferred", len(fs.pending))
		}
		if busy := readDir(); busy != quiet {
			t.Fatalf("ReadDir makes %v allocations beside 4000 deferred creates elsewhere, %v without", busy, quiet)
		}
	})
	for _, c := range indexConfigs {
		t.Run("program/"+c.name, func(t *testing.T) {
			runIndexProgram(t, c.mutate)
		})
	}
}

// runIndexProgram drives creates, mkdirs, unlinks, rmdirs, renames,
// write-backs, syncs, cache drops and log-pressure relief over nested
// directories and the root, on a log small enough that the relief runs,
// and checks the index and every listing after each operation. A
// directory rename writes back the deferred creates beneath it first, as
// the VFS does.
func runIndexProgram(t *testing.T, mutate func(*Config)) {
	_, fs := newFSWithLog(t, 32<<10, mutate)
	rng := rand.New(rand.NewSource(1))
	ns := map[string]bool{"": true} // path → is a directory
	pad := strings.Repeat("n", 300)
	serial := 0
	// entries lists the paths below the root whose kind keep accepts, in
	// order, so that the seed alone decides the program.
	entries := func(keep func(dir bool) bool) []string {
		var out []string
		for p, d := range ns {
			if p != "" && keep(d) {
				out = append(out, p)
			}
		}
		sort.Strings(out)
		return out
	}
	files := func(dir bool) bool { return !dir }
	subdirs := func(dir bool) bool { return dir }
	either := func(bool) bool { return true }
	pick := func(ps []string) string { return ps[rng.Intn(len(ps))] }
	dirs := func() []string { return append([]string{""}, entries(subdirs)...) }
	hasChild := func(dir string) bool {
		for p := range ns {
			if parent, _ := keys.ParentAndName(p); p != "" && parent == dir {
				return true
			}
		}
		return false
	}
	create := func(dir bool) {
		parent := pick(dirs())
		serial++
		name := fmt.Sprintf("e%04d-%s", serial, pad[:rng.Intn(len(pad))])
		if _, _, err := fs.Create(parent, name, dir); err != nil {
			t.Fatal(err)
		}
		ns[keys.Join(parent, name)] = dir
	}
	for step := 0; step < 300; step++ {
		op := rng.Intn(100)
		switch {
		case op < 30:
			create(false)
		case op < 42:
			create(true)
		case op < 50:
			if fl := entries(files); len(fl) > 0 {
				p := pick(fl)
				parent, name := keys.ParentAndName(p)
				if err := fs.Remove(parent, name, p, false); err != nil {
					t.Fatal(err)
				}
				delete(ns, p)
			}
		case op < 57:
			if ds := entries(subdirs); len(ds) > 0 {
				p := pick(ds)
				parent, name := keys.ParentAndName(p)
				err := fs.Remove(parent, name, p, true)
				if hasChild(p) {
					if !errors.Is(err, vfs.ErrNotEmpty) {
						t.Fatalf("rmdir %q with children: %v", p, err)
					}
				} else {
					if err != nil {
						t.Fatalf("rmdir empty %q: %v", p, err)
					}
					delete(ns, p)
				}
			}
		case op < 64:
			all := entries(either)
			if len(all) == 0 {
				break
			}
			p := pick(all)
			var targets []string
			for _, d := range dirs() {
				if d != p && !isUnder(d, p) {
					targets = append(targets, d)
				}
			}
			newParent := pick(targets)
			serial++
			newName := fmt.Sprintf("r%04d", serial)
			newPath := keys.Join(newParent, newName)
			if ns[p] {
				var under []*deferredCreate
				for dc := fs.created.oldest; dc != nil; dc = dc.created.next {
					if dc.path == p || isUnder(dc.path, p) {
						under = append(under, dc)
					}
				}
				sort.Slice(under, func(i, j int) bool { return under[i].path < under[j].path })
				for _, dc := range under {
					if err := fs.WriteAttr(dc.path, dc.attr); err != nil {
						t.Fatal(err)
					}
				}
			}
			oldParent, oldName := keys.ParentAndName(p)
			if _, err := fs.Rename(oldParent, oldName, p, newParent, newName); err != nil {
				t.Fatalf("rename %q → %q: %v", p, newPath, err)
			}
			for q, d := range ns {
				if q == p || isUnder(q, p) {
					delete(ns, q)
					ns[newPath+q[len(p):]] = d
				}
			}
		case op < 74:
			if n := len(fs.pending); n > 0 {
				dc := fs.created.oldest
				for i := rng.Intn(n); i > 0; i-- {
					dc = dc.created.next
				}
				if err := fs.WriteAttr(dc.path, dc.attr); err != nil {
					t.Fatal(err)
				}
			}
		case op < 76:
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
			}
		case op < 78:
			fs.DropCaches()
		default:
			fs.maybeCheckpoint()
		}

		checkDirIndex(t, fs)
		for _, d := range dirs() {
			want := filterReadDir(t, fs, d)
			got, err := fs.ReadDir(d)
			if err != nil {
				t.Fatalf("step %d: ReadDir(%q): %v", step, d, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: ReadDir(%q) = %v, the filter over all deferred creates gives %v", step, d, got, want)
			}
			var names, model []string
			for _, e := range got {
				names = append(names, keys.Join(d, e.Name))
			}
			for p := range ns {
				if parent, _ := keys.ParentAndName(p); p != "" && parent == d {
					model = append(model, p)
				}
			}
			sort.Strings(names)
			sort.Strings(model)
			if !slices.Equal(names, model) {
				t.Fatalf("step %d: %q lists %v, want %v", step, d, names, model)
			}
		}
	}
	if fs.m.createForced.Load() == 0 {
		t.Fatal("the program never relieved log pressure")
	}
}

// mountIndexFS mounts a VFS over a fresh BetrFS for one of indexConfigs.
func mountIndexFS(t *testing.T, mutate func(*Config)) (*FS, *vfs.Mount) {
	t.Helper()
	env, fs := newFS(t, mutate)
	return fs, vfs.NewMount(env, fs, vfs.DefaultConfig())
}

// requireDeferred fails unless every path is still a deferred create, so
// that a test exercises the index rather than the tree.
func requireDeferred(t *testing.T, fs *FS, paths ...string) {
	t.Helper()
	for _, p := range paths {
		if _, ok := fs.pending[p]; !ok {
			t.Fatalf("%q is not a deferred create", p)
		}
	}
}

func listNames(t *testing.T, m *vfs.Mount, dir string) []string {
	t.Helper()
	ents, err := m.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir(%q): %v", dir, err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// TestRenameDirectoryWithDeferredChildren renames a directory whose child,
// subdirectory and grandchild are still deferred creates. The new name
// lists them before and after a sync and a cache drop, and the old name is
// gone: the VFS writes the subtree back before the rename, so no
// per-directory queue is left under the old name to resurrect it.
func TestRenameDirectoryWithDeferredChildren(t *testing.T) {
	for _, c := range indexConfigs {
		t.Run(c.name, func(t *testing.T) {
			fs, m := mountIndexFS(t, c.mutate)
			if err := m.MkdirAll("a/sub"); err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"a/x", "a/sub/y"} {
				f, err := m.Create(p)
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			requireDeferred(t, fs, "a", "a/sub", "a/x", "a/sub/y")
			if err := m.Rename("a", "b"); err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				if got := listNames(t, m, "b"); !slices.Equal(got, []string{"sub", "x"}) {
					t.Fatalf("%s: b lists %v, want [sub x]", when, got)
				}
				if got := listNames(t, m, "b/sub"); !slices.Equal(got, []string{"y"}) {
					t.Fatalf("%s: b/sub lists %v, want [y]", when, got)
				}
				if got := listNames(t, m, ""); !slices.Equal(got, []string{"b"}) {
					t.Fatalf("%s: the root lists %v, want [b]", when, got)
				}
				for _, p := range []string{"a", "a/x", "a/sub", "a/sub/y"} {
					if _, err := m.Stat(p); !errors.Is(err, vfs.ErrNotExist) {
						t.Fatalf("%s: Stat(%q) = %v, want ErrNotExist", when, p, err)
					}
				}
				if _, err := m.ReadDir("a"); !errors.Is(err, vfs.ErrNotExist) {
					t.Fatalf("%s: ReadDir(a) = %v, want ErrNotExist", when, err)
				}
				for _, d := range []string{"a", "a/sub"} {
					if _, ok := fs.dirs[d]; ok {
						t.Fatalf("%s: deferred creates still indexed under %q", when, d)
					}
				}
			}
			check("before sync")
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			m.DropCaches()
			check("after sync and drop caches")
		})
	}
}

// TestRmdirSeesDeferredChildren: rmdir fails with ErrNotEmpty on a
// directory whose only child is a deferred create, on one whose only
// grandchild is (below a subdirectory in the tree, and below a deferred
// subdirectory), and succeeds once the children are gone.
func TestRmdirSeesDeferredChildren(t *testing.T) {
	for _, c := range indexConfigs {
		t.Run(c.name, func(t *testing.T) {
			fs, m := mountIndexFS(t, c.mutate)
			for _, d := range []string{"c1", "c2/sub"} {
				if err := m.MkdirAll(d); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := m.MkdirAll("c3/sub"); err != nil {
				t.Fatal(err)
			}
			files := []string{"c1/only", "c2/sub/g", "c3/sub/g"}
			for _, p := range files {
				f, err := m.Create(p)
				if err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			for _, d := range []string{"c1", "c2", "c2/sub", "c3", "c3/sub"} {
				requireDeferred(t, fs, files...)
				if err := m.Rmdir(d); !errors.Is(err, vfs.ErrNotEmpty) {
					t.Fatalf("rmdir %s = %v, want ErrNotEmpty", d, err)
				}
			}
			for _, p := range files {
				if err := m.Remove(p); err != nil {
					t.Fatal(err)
				}
			}
			for _, d := range []string{"c1", "c2/sub", "c2", "c3/sub", "c3"} {
				if err := m.Rmdir(d); err != nil {
					t.Fatalf("rmdir %s after its children went: %v", d, err)
				}
			}
			if len(fs.dirs) != 0 || len(fs.pending) != 0 {
				t.Fatalf("%d deferred creates left in %d directories", len(fs.pending), len(fs.dirs))
			}
		})
	}
}
