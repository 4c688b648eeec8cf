package betrfs

import (
	"fmt"
	"testing"
	"time"

	"betrfs/internal/keys"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// newWalkTree builds a TokuBench-shaped namespace of files files under
// "tb": 128 top directories holding leaf directories of two files each,
// created depth-first. It returns the FS synced with cold caches.
func newWalkTree(t testing.TB, files int) (*sim.Env, *FS) {
	t.Helper()
	env, fs := newFS(t, nil)
	create := func(parent vfs.Handle, name string, dir bool) vfs.Handle {
		h, _, err := fs.Create(parent, name, dir)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	const tops = 128
	root := create(fs.Root(), "tb", true)
	leaves, file := files/2, 0
	for i := 0; i < tops; i++ {
		top := create(root, fmt.Sprintf("d%03d", i), true)
		n := leaves / tops
		if i < leaves%tops {
			n++
		}
		for j := 0; j < n; j++ {
			leaf := create(top, fmt.Sprintf("d%03d", j), true)
			for f := 0; f < 2; f++ {
				create(leaf, fmt.Sprintf("f%07d", file), false)
				file++
			}
		}
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.DropCaches()
	return env, fs
}

// walkReadDir lists every directory under h recursively and returns the
// number of entries seen.
func walkReadDir(t testing.TB, fs *FS, h vfs.Handle) int {
	ents, err := fs.ReadDir(h)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ents)
	for _, e := range ents {
		if e.Dir {
			n += walkReadDir(t, fs, keys.Join(h.(string), e.Name))
		}
	}
	return n
}

// timedWalk walks the tree cold and returns the walk's simulated time and
// the part of it charged to key comparisons.
func timedWalk(t testing.TB, env *sim.Env, fs *FS, files int) (walk, compare time.Duration) {
	fs.DropCaches()
	t0, c0 := env.Now(), env.Stats.Compare
	// tb, its 128 top directories, files/2 leaf directories and the files.
	if got, want := walkReadDir(t, fs, "tb"), 128+files/2+files; got != want {
		t.Fatalf("walk of %d files saw %d entries, want %d", files, got, want)
	}
	return env.Now() - t0, env.Stats.Compare - c0
}

// TestReadDirWalkScalesLinearly is the namespace-walk guard (BfFS's rule:
// anything superlinear is a bug). Every ReadDir is a range query that must
// seek to its directory's keys; walking to them instead made a full walk
// quadratic in the file count once the metadata index is one big basement.
func TestReadDirWalkScalesLinearly(t *testing.T) {
	env, fs := newWalkTree(t, 2000)
	small, _ := timedWalk(t, env, fs, 2000)
	env, fs = newWalkTree(t, 8000)
	large, _ := timedWalk(t, env, fs, 8000)
	growth := float64(large) / float64(small)
	t.Logf("cold walk: 2000 files %v, 8000 files %v (%.1fx)", small, large, growth)
	if growth >= 8 {
		t.Fatalf("walk grew %.1fx for 4x the files, want under 8x", growth)
	}
}

// BenchmarkReadDirWalk reports the simulated time of one cold walk of an
// 8000-file tree and the share of it spent comparing keys.
func BenchmarkReadDirWalk(b *testing.B) {
	const files = 8000
	env, fs := newWalkTree(b, files)
	var simTotal, cmpTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, c := timedWalk(b, env, fs, files)
		simTotal += s
		cmpTotal += c
	}
	b.ReportMetric(simTotal.Seconds()/float64(b.N), "sim-s/op")
	b.ReportMetric(cmpTotal.Seconds()/float64(b.N), "compare-s/op")
}
