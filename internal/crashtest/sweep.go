package crashtest

import (
	"fmt"

	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// CrashKind selects how the unflushed-write stream is cut.
type CrashKind int

const (
	// CrashPrefix keeps the first Keep unflushed writes (classic
	// volatile-cache loss).
	CrashPrefix CrashKind = iota
	// CrashTorn keeps Keep writes plus a byte-prefix of write Keep —
	// a write torn mid-sector by power loss.
	CrashTorn
	// CrashSubset keeps a seeded-random subset of unflushed writes,
	// modeling a cache that drains out of order.
	CrashSubset
)

// CrashSpec describes one crash point. Keep values beyond the trial's
// actual unflushed-write count are clamped: Go map iteration makes the
// count vary slightly between otherwise identical runs, so each trial
// interprets the spec against its own stream.
type CrashSpec struct {
	Kind CrashKind
	Keep int // CrashPrefix/CrashTorn: writes kept intact
	// TornNum/TornDen give the fraction of the torn write persisted.
	TornNum, TornDen int
	Seed             uint64 // CrashSubset: survival sampling seed
	KeepPct          int    // CrashSubset: per-write survival probability
}

// String renders a stable description for reports.
func (cs CrashSpec) String() string {
	switch cs.Kind {
	case CrashTorn:
		return fmt.Sprintf("torn keep=%d frac=%d/%d", cs.Keep, cs.TornNum, cs.TornDen)
	case CrashSubset:
		return fmt.Sprintf("subset seed=%d keep=%d%%", cs.Seed, cs.KeepPct)
	default:
		return fmt.Sprintf("prefix keep=%d", cs.Keep)
	}
}

// apply crashes dev according to the spec, clamped to its actual
// unflushed-write count.
func (cs CrashSpec) apply(dev *blockdev.Dev) {
	n := dev.UnflushedWrites()
	switch cs.Kind {
	case CrashPrefix:
		k := cs.Keep
		if k > n {
			k = n
		}
		dev.Crash(k)
	case CrashTorn:
		if cs.Keep >= n {
			dev.Crash(n)
			return
		}
		torn := dev.UnflushedWriteLen(cs.Keep) * cs.TornNum / cs.TornDen
		dev.CrashTorn(cs.Keep, torn)
	case CrashSubset:
		rnd := sim.NewRand(cs.Seed)
		survive := make([]bool, n)
		for i := range survive {
			survive[i] = rnd.Intn(100) < cs.KeepPct
		}
		dev.CrashSubset(survive)
	}
}

// PrefixSpecs enumerates every prefix crash point 0..n.
func PrefixSpecs(n int) []CrashSpec {
	out := make([]CrashSpec, 0, n+1)
	for k := 0; k <= n; k++ {
		out = append(out, CrashSpec{Kind: CrashPrefix, Keep: k})
	}
	return out
}

// SubsetSpecs samples count seeded-random reordered-persistence crashes.
func SubsetSpecs(count int, baseSeed uint64, keepPct int) []CrashSpec {
	out := make([]CrashSpec, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, CrashSpec{Kind: CrashSubset, Seed: baseSeed + uint64(i), KeepPct: keepPct})
	}
	return out
}

// guard runs fn, converting a panic into an error. Recovery and
// traversal of a crashed image must never panic; the harness records a
// panic as an oracle violation rather than aborting the sweep.
func guard(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}

// ProbeUnflushed runs the workload once without crashing and reports the
// unflushed-write count, for sizing an exhaustive enumeration. The count
// varies slightly between runs (map iteration order); specs are clamped
// per trial.
func ProbeUnflushed(sys System, steps []Step) int {
	_, dev, _ := run(sys, steps)
	return dev.UnflushedWrites()
}

// run formats sys on a fresh crash-tracked device and runs the program on
// it and on a model. It then pushes dirty state to the device without a
// flush — dirty pages to the FS, and BetrFS's log tail to the device — so
// the crash cuts an in-flight writeback stream rather than an empty one.
// Nothing is durable but what the program's own syncs made so.
func run(sys System, steps []Step) (*sim.Env, *blockdev.Dev, *Model) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	gate := &flushGate{Device: dev}
	st, err := sys.build(env, gate)
	if err != nil {
		panic(fmt.Sprintf("crashtest: %s build: %v", sys.Name, err))
	}
	dev.EnableCrashTracking()
	mo, t := NewModel(), MountTarget(st.Mount)
	for i, n := 0, 0; i < len(steps); i += n {
		n = runLen(steps[i:])
		gate.held = gate.held || steps[i].Op == OpSyncInFlight
		if err := mo.do(t, steps[i:i+n]); err != nil {
			panic(fmt.Sprintf("crashtest: %s step %d: %v", sys.Name, i, err))
		}
		mo.record(steps[i : i+n]...)
	}
	st.Mount.Writeback()
	if b, ok := st.FS.(*betrfs.FS); ok {
		b.Store().Log().WriteOut()
	}
	return env, dev, mo
}

// recoverAndCheck re-mounts a crashed device through remount and checks the
// survivor against the model. Recovery and traversal of a crashed image
// must never panic; a panic is reported as a violation like any other.
func recoverAndCheck(system, spec string, mo *Model, remount func() (*vfs.Mount, error)) []Violation {
	var m2 *vfs.Mount
	if err := guard(func() {
		var rerr error
		if m2, rerr = remount(); rerr != nil {
			panic(rerr)
		}
	}); err != nil {
		return []Violation{{System: system, Spec: spec, Detail: "recovery failed: " + err.Error()}}
	}

	var vs []Violation
	if err := guard(func() { vs = mo.check(m2, system, spec) }); err != nil {
		vs = append(vs, Violation{System: system, Spec: spec, Detail: "post-recovery check: " + err.Error()})
	}
	return vs
}

// Outcome summarises a sweep.
type Outcome struct {
	Trials     int
	Violations []Violation
}

// Sweep runs every spec as an independent trial: it formats sys on a
// fresh device, runs the program, crashes at spec, recovers, and checks
// the model. Each trial rebuilds from scratch, so crash points are
// independent.
func Sweep(sys System, steps []Step, specs []CrashSpec) Outcome {
	out := Outcome{Trials: len(specs)}
	for _, spec := range specs {
		env, dev, mo := run(sys, steps)
		spec.apply(dev)
		out.Violations = append(out.Violations, recoverAndCheck(sys.Name, spec.String(), mo, func() (*vfs.Mount, error) {
			st, err := sys.recover(env, dev)
			if err != nil {
				return nil, err
			}
			return st.Mount, nil
		})...)
	}
	return out
}

// StandardWorkload builds the deterministic mixed workload used by the
// smoke sweeps: a durable (synced) population phase, then an unsynced
// mutation phase of overwrites, appends, new files, removes and fsyncs.
// All payload bytes are non-zero so the oracle's zero-is-unpersisted
// rule cannot mask lost writes.
func StandardWorkload(seed uint64, nFiles int) []Step {
	rnd := sim.NewRand(seed)
	var steps []Step
	dirs := []string{"d0", "d0/sub", "d1"}
	for _, d := range dirs {
		steps = append(steps, Step{Op: OpMkdir, Path: d})
	}
	var live []string
	data := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(1 + rnd.Intn(255))
		}
		return b
	}
	for i := 0; i < nFiles; i++ {
		p := fmt.Sprintf("%s/f%03d", dirs[i%len(dirs)], i)
		steps = append(steps, Step{Op: OpWrite, Path: p, Data: data(512 + rnd.Intn(8192))})
		live = append(live, p)
	}
	steps = append(steps, Step{Op: OpSync})

	for i := 0; i < nFiles; i++ {
		switch rnd.Intn(6) {
		case 0: // overwrite a prefix of an existing file
			p := live[rnd.Intn(len(live))]
			steps = append(steps, Step{Op: OpWrite, Path: p, Data: data(256 + rnd.Intn(2048))})
		case 1: // overwrite at an interior offset
			p := live[rnd.Intn(len(live))]
			steps = append(steps, Step{Op: OpWrite, Path: p, Off: int64(rnd.Intn(4096)), Data: data(128 + rnd.Intn(1024))})
		case 2: // append-ish extension well past the old size
			p := live[rnd.Intn(len(live))]
			steps = append(steps, Step{Op: OpWrite, Path: p, Off: int64(4096 + rnd.Intn(8192)), Data: data(256 + rnd.Intn(2048))})
		case 3: // brand-new volatile file
			p := fmt.Sprintf("%s/v%03d", dirs[rnd.Intn(len(dirs))], i)
			steps = append(steps, Step{Op: OpWrite, Path: p, Data: data(256 + rnd.Intn(4096))})
			live = append(live, p)
		case 4: // unsynced remove; the name is never reused
			if len(live) > 1 {
				j := rnd.Intn(len(live))
				steps = append(steps, Step{Op: OpRemove, Path: live[j]})
				live = append(live[:j], live[j+1:]...)
			}
		case 5: // fsync one live file
			steps = append(steps, Step{Op: OpFsync, Path: live[rnd.Intn(len(live))]})
		}
	}
	return steps
}
