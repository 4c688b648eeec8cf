package systems

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path"
	"sort"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/cowfs"
	"betrfs/internal/logfs"
	"betrfs/internal/metrics/metricstest"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// The out-of-place baselines (f2fs, btrfs, zfs) run one fixed program on a
// 24 MiB device with a 4 MiB page cache. The program is sized so that
// logfs cleans segments and cowfs commits a txg because its deferred frees
// outgrew an eighth of the data area, well before the first explicit sync.
const (
	baselineDevBytes  = 24 << 20
	baselinePageCache = 4 << 20
)

// goldenBaselines pins the simulated clock and the device counters each
// baseline ends the program with. The run is single-threaded and charges
// costs in a fixed order, so any drift is a behaviour change.
var goldenBaselines = map[string]string{
	"f2fs":  "now=692528725 {Reads:6960 Writes:6804 Flushes:246 BytesRead:35966976 BytesWritten:56713216 BusyTime:560.553018ms SeqWrites:6313 RandWrites:491 SeqReads:6658 RandReads:302 Discards:15 BytesDiscarded:31457280}",
	"btrfs": "now=394776432 {Reads:729 Writes:2542 Flushes:263 BytesRead:10465280 BytesWritten:46629251 BusyTime:236.196455ms SeqWrites:2215 RandWrites:327 SeqReads:550 RandReads:179 Discards:269 BytesDiscarded:21458944}",
	"zfs":   "now=367495954 {Reads:736 Writes:1138 Flushes:263 BytesRead:10530816 BytesWritten:47417283 BusyTime:208.694417ms SeqWrites:800 RandWrites:338 SeqReads:555 RandReads:181 Discards:259 BytesDiscarded:22114304}",
}

// program drives a mount and keeps the bytes every file should hold.
type program struct {
	t     *testing.T
	m     *vfs.Mount
	files map[string][]byte
}

// pattern returns n deterministic bytes that differ per seed.
func pattern(seed, n int) []byte {
	b := make([]byte, n+8)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := 0; i < n; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
	return b[:n]
}

func (p *program) write(name string, off int64, data []byte, fsync bool) {
	p.t.Helper()
	f, err := p.m.OpenFile(name, true, false)
	if err != nil {
		p.t.Fatalf("open %s: %v", name, err)
	}
	if _, err := f.WriteAt(data, off); err != nil {
		p.t.Fatalf("write %s@%d: %v", name, off, err)
	}
	if fsync {
		if err := f.Fsync(); err != nil {
			p.t.Fatalf("fsync %s: %v", name, err)
		}
	}
	f.Close()
	cur := p.files[name]
	if end := off + int64(len(data)); int64(len(cur)) < end {
		cur = append(cur, make([]byte, end-int64(len(cur)))...)
	}
	copy(cur[off:], data)
	p.files[name] = cur
}

func (p *program) truncate(name string, size int64) {
	p.t.Helper()
	f, err := p.m.Open(name)
	if err != nil {
		p.t.Fatal(err)
	}
	if err := f.Truncate(size); err != nil {
		p.t.Fatalf("truncate %s: %v", name, err)
	}
	f.Close()
	p.files[name] = p.files[name][:size]
}

func (p *program) rename(from, to string) {
	p.t.Helper()
	if err := p.m.Rename(from, to); err != nil {
		p.t.Fatalf("rename %s: %v", from, err)
	}
	p.files[to] = p.files[from]
	delete(p.files, from)
}

func (p *program) remove(name string) {
	p.t.Helper()
	if err := p.m.Remove(name); err != nil {
		p.t.Fatalf("remove %s: %v", name, err)
	}
	delete(p.files, name)
}

// check walks the tree from the root and requires exactly the program's
// files, each holding exactly its bytes.
func (p *program) check(m *vfs.Mount) {
	p.t.Helper()
	var found []string
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := m.ReadDir(dir)
		if err != nil {
			p.t.Fatalf("readdir %q: %v", dir, err)
		}
		for _, e := range ents {
			full := path.Join(dir, e.Name)
			if e.Dir {
				walk(full)
				continue
			}
			found = append(found, full)
			f, err := m.Open(full)
			if err != nil {
				p.t.Fatalf("open %s: %v", full, err)
			}
			want := p.files[full]
			got := make([]byte, len(want)+1)
			n, _ := f.ReadAt(got, 0)
			if n != len(want) || !bytes.Equal(got[:n], want) {
				p.t.Errorf("%s: read %d bytes back, want %d (equal=%v)", full, n, len(want), bytes.Equal(got[:n], want))
			}
		}
	}
	walk("")
	var want []string
	for name := range p.files {
		want = append(want, name)
	}
	sort.Strings(found)
	sort.Strings(want)
	if fmt.Sprint(found) != fmt.Sprint(want) {
		p.t.Errorf("files after the program:\n got  %v\n want %v", found, want)
	}
}

// runBaselineProgram formats name on a fresh device and runs the program:
// fresh, overwriting, sub-record and extending writes, fsyncs, churn that
// leaves segments half dead, renames across directories, truncations, the
// removal of a file and of a directory, a sync and a cache drop.
func runBaselineProgram(t *testing.T, name string) (*sim.Env, *blockdev.Dev, *Stack) {
	t.Helper()
	s := lookup(t, name)
	env := sim.NewEnv(1)
	prof := s.Device()
	prof.Capacity = baselineDevBytes
	dev := blockdev.New(env, prof)
	st, err := s.New(env, dev, Sizes{PageCache: baselinePageCache})
	if err != nil {
		t.Fatal(err)
	}
	p := &program{t: t, m: st.Mount, files: map[string][]byte{}}
	for _, d := range []string{"a/b", "c/many", "churn"} {
		if err := st.Mount.MkdirAll(d); err != nil {
			t.Fatal(err)
		}
	}
	const mib = 1 << 20
	for i := int64(0); i < 4; i++ {
		p.write("a/f1", i*mib, pattern(1+int(i), mib), false)
	}
	p.write("a/b/f2", 0, pattern(10, 2*mib+123), false)
	p.write("c/small", 0, pattern(11, 5000), false)
	p.write("a/f1", 0, nil, true) // fsync only
	for round := 0; round < 2; round++ {
		p.write("a/f1", 0, pattern(20+round, 4*mib), false)
	}
	p.write("a/b/f2", 12345, pattern(30, 100), false)
	p.write("a/b/f2", 200000, pattern(31, 4096), true)
	p.write("a/b/f2", 2*mib+123+10000, pattern(32, 7000), false)
	p.write("c/small", 5000, pattern(33, 3000), true)
	// No sync has run and the clock is far short of any txg interval, so a
	// TRIM here means cowfs committed a txg to release its deferred frees.
	if _, ok := st.FS.(*cowfs.FS); ok && dev.Stats().Discards == 0 {
		t.Error("the overwrites never made cowfs commit a txg under deferred-free pressure")
	}
	for i := 0; i < 48; i++ {
		p.write(fmt.Sprintf("c/many/f%02d", i), 0, pattern(40+i, 100+i*37), false)
	}
	for r := 0; r < 7; r++ {
		live, dead := fmt.Sprintf("churn/live%02d", r), fmt.Sprintf("churn/dead%02d", r)
		for chunk := int64(0); chunk < 8; chunk++ {
			p.write(live, chunk<<17, pattern(100+r, 128<<10), true)
			p.write(dead, chunk<<17, pattern(200+r, 128<<10), true)
		}
		p.remove(dead)
	}
	p.rename("a/b/f2", "c/f2")
	p.rename("c/small", "a/small")
	p.truncate("a/f1", 5*mib/2+77)
	p.truncate("c/f2", mib+7)
	p.remove("churn/live00")
	if err := st.Mount.Rmdir("a/b"); err != nil {
		t.Fatal(err)
	}
	if err := st.Mount.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Mount.DropCaches()
	p.check(st.Mount)
	return env, dev, st
}

// TestBaselinePin runs the program on each out-of-place baseline and pins
// the simulated time and device counters it ends with.
func TestBaselinePin(t *testing.T) {
	for _, name := range []string{"f2fs", "btrfs", "zfs"} {
		t.Run(name, func(t *testing.T) {
			env, dev, st := runBaselineProgram(t, name)
			if _, ok := st.FS.(*logfs.FS); ok && metricstest.Counter(t, env.Metrics, "logfs.segment.cleaned") == 0 {
				t.Error("the program never made logfs clean a segment")
			}
			got := fmt.Sprintf("now=%d %+v", env.Now(), *dev.Stats())
			if got != goldenBaselines[name] {
				t.Errorf("drift:\n got  %s\n want %s", got, goldenBaselines[name])
			}
		})
	}
}

// TestRecoveryChargesRepeat recovers one image of 64 files in four
// directories several times, each on a fresh copy of the device, and
// requires every recovery to charge the same simulated time and device
// traffic: the scan must not read blobs in map order.
func TestRecoveryChargesRepeat(t *testing.T) {
	for _, name := range []string{"f2fs", "btrfs"} {
		t.Run(name, func(t *testing.T) {
			s := lookup(t, name)
			env := sim.NewEnv(1)
			prof := s.Device()
			prof.Capacity = baselineDevBytes
			src := blockdev.New(env, prof)
			st, err := s.New(env, src, Sizes{PageCache: baselinePageCache})
			if err != nil {
				t.Fatal(err)
			}
			p := &program{t: t, m: st.Mount, files: map[string][]byte{}}
			for i := 0; i < 64; i++ {
				if i < 4 {
					if err := st.Mount.Mkdir(fmt.Sprintf("d%d", i)); err != nil {
						t.Fatal(err)
					}
				}
				p.write(fmt.Sprintf("d%d/f%02d", i%4, i), 0, pattern(i, 1000+i*100), false)
			}
			if err := st.Mount.Sync(); err != nil {
				t.Fatal(err)
			}
			const chunk = 1 << 20
			image := map[int64][]byte{}
			zero := make([]byte, chunk)
			for off := int64(0); off < src.Size(); off += chunk {
				b := make([]byte, chunk)
				if err := src.ReadAt(b, off); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b, zero) {
					image[off] = b
				}
			}
			offs := make([]int64, 0, len(image))
			for off := range image {
				offs = append(offs, off)
			}
			sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
			var first string
			for i := 0; i < 3; i++ {
				env := sim.NewEnv(1)
				dev := blockdev.New(env, prof)
				for _, off := range offs {
					if err := dev.WriteAt(image[off], off); err != nil {
						t.Fatal(err)
					}
				}
				if err := dev.Flush(); err != nil {
					t.Fatal(err)
				}
				now, before := env.Now(), *dev.Stats()
				st, err := lookup(t, name).Recover(env, dev, Sizes{PageCache: baselinePageCache})
				if err != nil {
					t.Fatal(err)
				}
				after := *dev.Stats()
				got := fmt.Sprintf("took=%d reads=%d/%d seq=%d rand=%d writes=%d/%d flushes=%d busy=%d",
					env.Now()-now, after.Reads-before.Reads, after.BytesRead-before.BytesRead,
					after.SeqReads-before.SeqReads, after.RandReads-before.RandReads,
					after.Writes-before.Writes, after.BytesWritten-before.BytesWritten,
					after.Flushes-before.Flushes, after.BusyTime-before.BusyTime)
				if i == 0 {
					first = got
					p.check(st.Mount)
				} else if got != first {
					t.Errorf("recovery %d charged differently:\n got  %s\n want %s", i, got, first)
				}
			}
		})
	}
}
