package crashtest

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/kmem"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// The crash sweep past log wrap. The program is create-heavy: every create
// is conditionally logged and pins its log record, the log region is small
// enough that the program logs more than twice its size, and the pins are
// therefore released under pressure (betrfs.relievePinnedLog) and the log
// reclaimed by checkpoints that run in the middle of the program. The
// crash points sit inside those moments, which the sweeps in
// crashtest_test.go cannot reach: they cut only the writes left unflushed
// when the whole workload has run.

// wrapLogBytes is an eighth of the benchmark machine's log region. Every
// threshold of the log-space policy is a fraction of the region, so the
// smaller region runs the same policy on an eighth of the creates.
const wrapLogBytes = 512 << 10

// powerCut is what cutDev panics with.
type powerCut struct{}

// cutDev counts the writes and flushes the stack issues and, in place of
// command number cutAt, cuts the power: it panics with powerCut, which
// unwinds the running operation.
type cutDev struct {
	blockdev.Device
	ops, cutAt int
}

func (d *cutDev) tick() {
	if d.ops == d.cutAt {
		panic(powerCut{})
	}
	d.ops++
}

func (d *cutDev) WriteAt(p []byte, off int64) error {
	d.tick()
	return d.Device.WriteAt(p, off)
}

func (d *cutDev) SubmitWrite(p []byte, off int64) blockdev.Completion {
	d.tick()
	return d.Device.SubmitWrite(p, off)
}

func (d *cutDev) Flush() error {
	d.tick()
	return d.Device.Flush()
}

func newWrapBetrfs(env *sim.Env, dev blockdev.Device) (*betrfs.FS, error) {
	cfg := betrfs.V06Config()
	cfg.Tree.CacheBytes = 1 << 20 // as newBetrfs: evictions put node writes in the stream
	lay := sfl.DefaultLayout(dev.Size())
	lay.LogBytes = wrapLogBytes
	backend, err := sfl.New(env, dev, lay)
	if err != nil {
		return nil, err
	}
	return betrfs.New(env, kmem.New(env, true), cfg, backend)
}

// createHeavySteps creates files empty files with long names in one
// directory, with a full sync after each of the creates numbered in syncAt:
// the creates before a sync must survive every crash after it.
func createHeavySteps(files int, syncAt ...int) []Step {
	steps := []Step{{Op: OpMkdir, Path: "d"}}
	for i := 0; i < files; i++ {
		steps = append(steps, Step{Op: OpWrite, Path: fmt.Sprintf("d/f%05d-%s", i, strings.Repeat("n", 200))})
		for _, at := range syncAt {
			if i+1 == at {
				steps = append(steps, Step{Op: OpSync})
			}
		}
	}
	return steps
}

// wrapRun is one execution of the program up to a power cut.
type wrapRun struct {
	env *sim.Env
	raw *blockdev.Dev
	dev *cutDev
	mo  *model
}

// runUntilCut runs steps on a fresh stack until command cutAt would reach
// the device (never, if cutAt is negative). The model records the step the
// cut interrupted as applied but not durable, and an interrupted sync as
// not having happened. afterStep, if set, observes the stack after every
// completed step.
func runUntilCut(t *testing.T, steps []Step, cutAt int, afterStep func(i int, r *wrapRun)) *wrapRun {
	t.Helper()
	env := sim.NewEnv(1)
	raw := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	r := &wrapRun{env: env, raw: raw, dev: &cutDev{Device: raw, cutAt: -1}, mo: newModel()}
	fs, err := newWrapBetrfs(env, r.dev)
	if err != nil {
		t.Fatal(err)
	}
	m := vfs.NewMount(env, fs, mountConfig())
	raw.EnableCrashTracking()
	r.dev.ops, r.dev.cutAt = 0, cutAt
	for i, s := range steps {
		cut := false
		func() {
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(powerCut); !ok {
						panic(p)
					}
					cut = true
				}
			}()
			applyStep(m, s)
		}()
		if !cut || s.Op != OpSync {
			r.mo.apply(s)
		}
		if cut {
			return r
		}
		if afterStep != nil {
			afterStep(i, r)
		}
	}
	return r
}

// TestCrashSweepPastLogWrap cuts the power at every device command of the
// program: the stack buffers the log in memory, so the commands are those
// of the pressure checkpoints and the syncs, a few dozen in all. The probe
// checks that pins are released under pressure in a create before anything
// was synced, inside a sync (its write-back logs one record per inode) and
// in a create after one, so the cut points lie on both sides of each kind
// of release. Each cut point runs twice: every write issued before the cut
// persists, and the last of them is torn in half. The legal-states oracle
// must hold, so in particular no create a completed sync covered is lost —
// whether the checkpoint since wrote it into the tree or it lives only in
// a log the head has lapped.
func TestCrashSweepPastLogWrap(t *testing.T) {
	steps := createHeavySteps(4300, 2000, 2700)

	var releases []Op // the kind of each step that released pins
	forced := int64(0)
	probe := runUntilCut(t, steps, -1, func(i int, r *wrapRun) {
		if now := r.env.Metrics.Counter("betrfs.create.forced").Load(); now != forced {
			forced = now
			releases = append(releases, steps[i].Op)
		}
	})
	if logged := probe.env.Metrics.Counter("wal.bytes.logged").Load(); logged < 3*wrapLogBytes {
		t.Fatalf("program logged %d bytes, want over three times the %d-byte region", logged, wrapLogBytes)
	}
	if n := len(releases); n < 3 || releases[0] != OpWrite || releases[n-1] != OpWrite || !slices.Contains(releases, OpSync) {
		t.Fatalf("pins released in steps of kinds %v: want a create first, a sync between, a create last", releases)
	}

	trials := 0
	stride := 1
	if testing.Short() {
		stride = 3
	}
	for cutAt := 0; cutAt <= probe.dev.ops; cutAt += stride {
		for _, torn := range []bool{false, true} {
			r := runUntilCut(t, steps, cutAt, nil)
			spec := fmt.Sprintf("cut at command %d", cutAt)
			if n := r.raw.UnflushedWrites(); !torn {
				r.raw.Crash(n)
			} else if n > 0 {
				spec += ", last write torn"
				r.raw.CrashTorn(n-1, r.raw.UnflushedWriteLen(n-1)/2)
			} else {
				continue // the cut follows a flush: nothing to tear
			}
			trials++
			vs := recoverAndCheck("betrfs-v0.6", spec, r.mo, r.env, func() (vfs.FS, error) {
				return newWrapBetrfs(r.env, r.raw)
			})
			for _, v := range vs {
				t.Errorf("%s", v)
			}
		}
	}
	t.Logf("%d trials over %d device commands; pins released in steps of kinds %v", trials, probe.dev.ops, releases)
}
