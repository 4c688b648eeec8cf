package betrfs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"betrfs/internal/betree"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// smallLogBytes is the log region of the benchmark's 1/512 machine: small
// enough that a few tens of thousands of creates run past log wrap.
const smallLogBytes = 4 << 20

func newSmallLogFS(t testing.TB, concurrent bool) (*sim.Env, *FS) {
	t.Helper()
	return newFSWithLog(t, smallLogBytes, func(c *Config) { c.Tree.Concurrent = concurrent })
}

// TestLogPressureReleasesPins is the last-resort path: a deferred create
// pins the log's first record and a flood of tree puts, with no northbound
// operation in between to relieve the pressure, fills the region. The
// store's hook must release the pin so the checkpoint can reclaim. In
// concurrent mode the hook is called from under the writer lock and
// inserts through Tree.Put, which takes it: that used to hang, so the
// flood runs under a watchdog.
func TestLogPressureReleasesPins(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		t.Run(fmt.Sprintf("concurrent=%v", concurrent), func(t *testing.T) {
			env, fs := newSmallLogFS(t, concurrent)
			fs.Create(fs.Root(), "pinned", false)
			done := make(chan error, 1)
			go func() {
				tr := fs.store.Meta()
				payload := make([]byte, 400)
				for i := 0; i < 20000; i++ {
					if err := tr.Put([]byte(fmt.Sprintf("k%06d", i)), payload, betree.LogAuto); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("put under log pressure: %v", err)
				}
			case <-time.After(2 * time.Minute):
				t.Fatal("deadlock: the log-pressure hook re-entered the writer lock")
			}
			if len(fs.pending) != 0 || fs.oldest != nil {
				t.Fatal("log pressure did not flush pending creates")
			}
			if got := env.Metrics.Snapshot().Counters["betrfs.create.forced"]; got != 1 {
				t.Fatalf("betrfs.create.forced = %d, want 1", got)
			}
			if _, _, err := fs.Lookup(fs.Root(), "pinned"); err != nil {
				t.Fatalf("forced create not in the tree: %v", err)
			}
		})
	}
}

// wrapFile names file i of createPastLogWrap's tree, 500 to a directory.
// The names are long so that few files log a lot: a create and its
// write-back each log the full path.
func wrapFile(i int) (dir, path string) {
	dir = fmt.Sprintf("d%03d", i/500)
	return dir, fmt.Sprintf("%s/f%06d-%s", dir, i, strings.Repeat("n", 180))
}

// createPastLogWrap creates files empty files through a VFS mount and
// syncs: every create is deferred and pins its log record until write-back,
// and the sync writes every inode back.
func createPastLogWrap(t testing.TB, files int) (*sim.Env, *FS, *vfs.Mount) {
	t.Helper()
	env, fs := newSmallLogFS(t, false)
	m := vfs.NewMount(env, fs, vfs.DefaultConfig())
	for i := 0; i < files; i++ {
		dir, path := wrapFile(i)
		if i%500 == 0 {
			if err := m.Mkdir(dir); err != nil {
				t.Fatal(err)
			}
		}
		f, err := m.Create(path)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		f.Close()
	}
	if err := m.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	return env, fs, m
}

// TestCreatePastLogWrap logs three times the log region in creates and
// their write-back. Log-space checkpoints must stay a quarter region of
// appends apart — one per operation is the storm this policy ends — every
// file must be there afterwards, and a second run must leave the registry
// in exactly the same state: deferred creates are walked in queue order,
// where ranging the pending map let Go's map order pick the MSNs.
func TestCreatePastLogWrap(t *testing.T) {
	const files = 25000
	env, fs, m := createPastLogWrap(t, files)
	first := env.Metrics.Snapshot()
	c := first.Counters
	logged := c["wal.bytes.logged"]
	if logged < 3*smallLogBytes {
		t.Fatalf("logged %d bytes, want at least three times the %d-byte region", logged, smallLogBytes)
	}
	quarter := int64(smallLogBytes / 4)
	bound := (logged+quarter-1)/quarter + 2
	if got := c["betree.checkpoint.run"]; got > bound {
		t.Errorf("betree.checkpoint.run = %d, want at most %d for %d logged bytes", got, bound, logged)
	}
	if got := c["wal.reclaim.pinblocked"]; got > bound {
		t.Errorf("wal.reclaim.pinblocked = %d, want at most %d", got, bound)
	}
	deferred := int64(files + files/500)
	if got := c["betrfs.create.deferred"]; got != deferred {
		t.Errorf("betrfs.create.deferred = %d, want %d", got, deferred)
	}
	if forced := c["betrfs.create.forced"]; forced == 0 || forced > deferred {
		t.Errorf("betrfs.create.forced = %d of %d deferred creates", forced, deferred)
	}
	if len(fs.pending) != 0 || fs.oldest != nil || fs.newest != nil {
		t.Errorf("%d creates still deferred after sync", len(fs.pending))
	}
	m.DropCaches()
	for d := 0; d < files/500; d++ {
		dir, _ := wrapFile(d * 500)
		ents, err := m.ReadDir(dir)
		if err != nil || len(ents) != 500 {
			t.Fatalf("readdir %s after sync: %d entries, %v", dir, len(ents), err)
		}
		seen := map[string]bool{}
		for _, e := range ents {
			seen[dir+"/"+e.Name] = true
		}
		for i := d * 500; i < (d+1)*500; i++ {
			if _, path := wrapFile(i); !seen[path] {
				t.Fatalf("%s missing after sync", path[:16])
			}
		}
	}

	env2, _, _ := createPastLogWrap(t, files)
	if second := env2.Metrics.Snapshot(); !reflect.DeepEqual(first, second) {
		for name, v := range first.Counters {
			if w := second.Counters[name]; w != v {
				t.Errorf("%s: %d in the first run, %d in the second", name, v, w)
			}
		}
		t.Fatal("two identical runs left different registry snapshots")
	}
}

// TestLogPressureSparesYoungCreates: the relief releases oldest-first and
// stops once a checkpoint would free half the region, so at the moment the
// first create is un-deferred the youngest are still deferred, and the
// checkpoint that follows empties at least half the log.
func TestLogPressureSparesYoungCreates(t *testing.T) {
	_, fs := newSmallLogFS(t, false)
	forced := fs.m.createForced.Load
	dir, _, err := fs.Create(fs.Root(), "d", true)
	if err != nil {
		t.Fatal(err)
	}
	created := 1
	for ; forced() == 0; created++ {
		if created > 100000 {
			t.Fatal("no log pressure after 100000 creates")
		}
		if _, _, err := fs.Create(dir, fmt.Sprintf("f%06d", created), false); err != nil {
			t.Fatal(err)
		}
	}
	if n := forced(); n >= int64(created) || len(fs.pending) != created-int(n) {
		t.Fatalf("%d of %d creates forced, %d still deferred", n, created, len(fs.pending))
	}
	if _, ok := fs.pending["d"]; ok {
		t.Fatal("the oldest create kept its pin")
	}
	if _, ok := fs.pending[fmt.Sprintf("d/f%06d", created-1)]; !ok {
		t.Fatal("the youngest create lost its deferral")
	}
	if live := fs.store.Log().LiveBytes(); live > smallLogBytes/2 {
		t.Fatalf("%d bytes of log live after the relief checkpoint, want at most half of %d", live, smallLogBytes)
	}
	if _, _, err := fs.Lookup(fs.Root(), "d"); err != nil {
		t.Fatalf("forced create not in the tree: %v", err)
	}
}

// BenchmarkCreatePastLogWrap is one whole run of 15 000 creates and a sync
// on the 4 MiB log, about twice the region. Besides host time it reports
// the simulated seconds and the checkpoints one run takes.
func BenchmarkCreatePastLogWrap(b *testing.B) {
	b.ReportAllocs()
	var sim time.Duration
	var checkpoints int64
	for i := 0; i < b.N; i++ {
		env, fs, _ := createPastLogWrap(b, 15000)
		sim += env.Now()
		checkpoints += fs.store.Stats().Checkpoints
	}
	b.ReportMetric(sim.Seconds()/float64(b.N), "sim-s/op")
	b.ReportMetric(float64(checkpoints)/float64(b.N), "checkpoints/op")
}
