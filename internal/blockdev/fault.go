package blockdev

import (
	"math/rand"
	"sync"
	"time"

	"betrfs/internal/ioerr"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
)

// Range is a half-open byte range [Off, Off+Len) on the device.
type Range struct {
	Off int64
	Len int64
}

func (r Range) overlaps(off int64, n int) bool {
	return off < r.Off+r.Len && off+int64(n) > r.Off
}

// FaultPlan configures deterministic, seeded fault injection. The zero
// value injects nothing. All probabilities are per command.
type FaultPlan struct {
	// Seed drives the fault RNG; the same plan and command sequence
	// always produce the same faults.
	Seed uint64
	// TransientReadProb / TransientWriteProb are the per-command
	// probabilities of a transient failure (controller timeout): the
	// command fails with a retryable error.
	TransientReadProb  float64
	TransientWriteProb float64
	// TransientPersistence is how many consecutive commands at the same
	// offset fail once a transient fault fires (modeling a marginal cell
	// that needs several read-retry rounds). Minimum 1.
	TransientPersistence int
	// BitFlipProb is the per-read probability of a silent single-bit
	// corruption in the returned buffer: the command "succeeds" but the
	// data is wrong, detectable only by checksum.
	BitFlipProb float64
	// LatencySpikeProb adds LatencySpike to a command's completion time
	// (background GC pauses, remapping stalls).
	LatencySpikeProb float64
	LatencySpike     time.Duration
	// BadSectors are permanently unreadable and unwritable ranges (grown
	// defects); commands overlapping them always fail non-transiently.
	BadSectors []Range
	// FailWritesAfter, when > 0, kills the write path after that many
	// successful writes: all later writes and flushes fail permanently
	// while reads keep working (media death, the classic worn-out-SSD
	// failure mode).
	FailWritesAfter int64
}

type faultKey struct {
	op  byte // 'r' or 'w'
	off int64
}

// FaultDev wraps a Device and injects the faults described by a FaultPlan.
// Faults are deterministic: a fixed seed and command sequence reproduce the
// same failures, which is what makes fault sweeps debuggable. A failed
// write may or may not have reached the medium (torn behavior), exactly as
// on real hardware; callers must treat the target range as undefined until
// a later write succeeds.
type FaultDev struct {
	env  *sim.Env
	dev  Device
	plan FaultPlan

	mu      sync.Mutex
	rng     *rand.Rand
	pending map[faultKey]int // remaining transient failures per site
	writes  int64            // successful writes, for FailWritesAfter
	dead    bool             // write path permanently failed

	mFaultRead  *metrics.Counter
	mFaultWrite *metrics.Counter
	mBitFlip    *metrics.Counter
	mSpike      *metrics.Counter
}

// NewFault wraps dev with fault injection per plan.
func NewFault(env *sim.Env, dev Device, plan FaultPlan) *FaultDev {
	if plan.TransientPersistence < 1 {
		plan.TransientPersistence = 1
	}
	reg := env.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &FaultDev{
		env:         env,
		dev:         dev,
		plan:        plan,
		rng:         rand.New(rand.NewSource(int64(plan.Seed))),
		pending:     make(map[faultKey]int),
		mFaultRead:  reg.Counter("io.fault.read"),
		mFaultWrite: reg.Counter("io.fault.write"),
		mBitFlip:    reg.Counter("io.fault.bitflip"),
		mSpike:      reg.Counter("io.fault.spike"),
	}
}

// Size returns the underlying device capacity.
func (d *FaultDev) Size() int64 { return d.dev.Size() }

// AddBadRange grows a permanent defect at runtime (a sector going bad
// mid-run).
func (d *FaultDev) AddBadRange(off, length int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.plan.BadSectors = append(d.plan.BadSectors, Range{Off: off, Len: length})
}

// FailWritesNow kills the write path immediately: every later write and
// flush fails permanently while reads keep working.
func (d *FaultDev) FailWritesNow() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dead = true
}

func (d *FaultDev) badRange(off int64, n int) bool {
	for _, r := range d.plan.BadSectors {
		if r.overlaps(off, n) {
			return true
		}
	}
	return false
}

// transientRoll decides whether this command suffers a transient fault,
// honoring per-site persistence. Caller holds d.mu.
func (d *FaultDev) transientRoll(op byte, off int64, prob float64) bool {
	k := faultKey{op: op, off: off}
	if rem := d.pending[k]; rem > 0 {
		if rem == 1 {
			delete(d.pending, k)
		} else {
			d.pending[k] = rem - 1
		}
		return true
	}
	if prob > 0 && d.rng.Float64() < prob {
		if d.plan.TransientPersistence > 1 {
			d.pending[k] = d.plan.TransientPersistence - 1
		}
		return true
	}
	return false
}

// SubmitRead starts a read, possibly injecting a fault. A failed read
// still occupies the device until its completion time, but p is zeroed (no
// data transferred); a bit-flipped read succeeds with silently wrong data.
func (d *FaultDev) SubmitRead(p []byte, off int64) Completion {
	c := d.dev.SubmitRead(p, off)
	if c.Err != nil {
		return c
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.badRange(off, len(p)):
		d.mFaultRead.Inc()
		zero(p)
		c.Err = &ioerr.DeviceError{Op: "read", Off: off, Len: len(p), Transient: false}
	case d.transientRoll('r', off, d.plan.TransientReadProb):
		d.mFaultRead.Inc()
		zero(p)
		c.Err = &ioerr.DeviceError{Op: "read", Off: off, Len: len(p), Transient: true}
	case d.plan.BitFlipProb > 0 && d.rng.Float64() < d.plan.BitFlipProb:
		d.mBitFlip.Inc()
		i := d.rng.Intn(len(p))
		p[i] ^= 1 << uint(d.rng.Intn(8))
	}
	if d.plan.LatencySpikeProb > 0 && d.rng.Float64() < d.plan.LatencySpikeProb {
		d.mSpike.Inc()
		c.At += d.plan.LatencySpike
	}
	return c
}

// SubmitWrite starts a write, possibly injecting a fault.
func (d *FaultDev) SubmitWrite(p []byte, off int64) Completion {
	c := d.dev.SubmitWrite(p, off)
	if c.Err != nil {
		return c
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.dead || d.badRange(off, len(p)):
		d.mFaultWrite.Inc()
		c.Err = &ioerr.DeviceError{Op: "write", Off: off, Len: len(p), Transient: false}
	case d.transientRoll('w', off, d.plan.TransientWriteProb):
		d.mFaultWrite.Inc()
		c.Err = &ioerr.DeviceError{Op: "write", Off: off, Len: len(p), Transient: true}
	default:
		d.writes++
		if d.plan.FailWritesAfter > 0 && d.writes >= d.plan.FailWritesAfter {
			d.dead = true
		}
	}
	if d.plan.LatencySpikeProb > 0 && d.rng.Float64() < d.plan.LatencySpikeProb {
		d.mSpike.Inc()
		c.At += d.plan.LatencySpike
	}
	return c
}

// Wait advances the clock to c's completion time and returns its outcome.
func (d *FaultDev) Wait(c Completion) error { return d.dev.Wait(c) }

// ReadAt synchronously reads through the fault layer.
func (d *FaultDev) ReadAt(p []byte, off int64) error {
	return d.Wait(d.SubmitRead(p, off))
}

// WriteAt synchronously writes through the fault layer.
func (d *FaultDev) WriteAt(p []byte, off int64) error {
	return d.Wait(d.SubmitWrite(p, off))
}

// Discard delegates the TRIM unless the write path is dead or the range
// overlaps a grown defect: a device that cannot write cannot retire
// mapping entries either, and trimming over a bad sector fails like any
// other command there. Discard faults are counted with the write-path
// faults (they travel the same firmware path).
func (d *FaultDev) Discard(off, length int64) error {
	d.mu.Lock()
	dead := d.dead || d.badRange(off, int(length))
	d.mu.Unlock()
	if dead {
		d.mFaultWrite.Inc()
		return &ioerr.DeviceError{Op: "discard", Off: off, Len: int(length), Transient: false}
	}
	return d.dev.Discard(off, length)
}

// Flush delegates the barrier; on a dead write path the barrier itself
// fails (the device can no longer promise durability).
func (d *FaultDev) Flush() error {
	d.mu.Lock()
	dead := d.dead
	d.mu.Unlock()
	if dead {
		d.mFaultWrite.Inc()
		return &ioerr.DeviceError{Op: "flush", Transient: false}
	}
	return d.dev.Flush()
}

func zero(p []byte) {
	for i := range p {
		p[i] = 0
	}
}
