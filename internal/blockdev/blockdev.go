// Package blockdev simulates block storage devices with realistic timing.
//
// The device model is the foundation of the reproduction: every file system
// in this repository issues its reads and writes here, and the simulated
// command timing (per-command overhead, sequential vs. random bandwidth
// asymmetry, write-cache exhaustion) is what makes batching small writes
// into large ones — the Bε-tree's core trick — pay off exactly as it does
// on the paper's Samsung 860 EVO.
//
// Timing follows a simple pipelined model: the device serializes commands
// (busy-until bookkeeping), and callers may submit asynchronously and wait
// later, which is how write-back and read-ahead overlap CPU with I/O.
package blockdev

import (
	"fmt"
	"sync"
	"time"

	"betrfs/internal/metrics"
	"betrfs/internal/sim"
)

// Completion identifies an in-flight I/O; it completes at time At. Err
// carries the command's outcome: a failed command still occupies the device
// until At, but the data was not transferred.
type Completion struct {
	At  time.Duration
	Err error
}

// Device is the interface all simulated storage exposes. All commands can
// fail: real devices return errors for grown bad sectors, controller
// timeouts, and media death, and fault-injecting wrappers (FaultDev)
// simulate exactly that. The plain simulated Dev never fails.
type Device interface {
	// ReadAt synchronously reads len(p) bytes at off. On error the
	// contents of p are undefined.
	ReadAt(p []byte, off int64) error
	// WriteAt synchronously writes len(p) bytes at off.
	WriteAt(p []byte, off int64) error
	// SubmitRead starts an asynchronous read; the data is visible in p
	// only after Wait returns without error.
	SubmitRead(p []byte, off int64) Completion
	// SubmitWrite starts an asynchronous write of p at off. The caller
	// must not modify p before the write completes.
	SubmitWrite(p []byte, off int64) Completion
	// Wait advances the clock to the completion time of c and returns the
	// command's outcome.
	Wait(c Completion) error
	// Flush drains the device queue and volatile write cache (a barrier).
	Flush() error
	// Discard (TRIM) tells the device that [off, off+length) no longer
	// holds live data, so its flash translation layer can stop preserving
	// it. Discarded ranges read back as zeroes (deterministic
	// read-after-TRIM). Discard is advisory: callers must treat a failure
	// as harmless, and like any write it is not durable until the next
	// Flush barrier — a crash may revert it.
	Discard(off, length int64) error
	// Size returns the device capacity in bytes.
	Size() int64
}

// Stats counts the I/O traffic a Dev has served.
type Stats struct {
	Reads        int64
	Writes       int64
	Flushes      int64
	BytesRead    int64
	BytesWritten int64
	BusyTime     time.Duration
	SeqWrites    int64
	RandWrites   int64
	SeqReads     int64
	RandReads    int64
	// Discards / BytesDiscarded count TRIM commands and the bytes they
	// covered.
	Discards       int64
	BytesDiscarded int64
}

// Profile describes the performance characteristics of a device.
type Profile struct {
	Name string
	// Capacity is the addressable size in bytes.
	Capacity int64
	// CmdOverhead is the fixed per-command cost (protocol + firmware).
	CmdOverhead time.Duration
	// SeqReadBW / SeqWriteBW are streaming bandwidths in bytes/sec.
	SeqReadBW  int64
	SeqWriteBW int64
	// SustainedWriteBW applies once the volatile write cache is full.
	SustainedWriteBW int64
	// WriteCacheBytes is the size of the fast write cache (SLC/DRAM
	// region on the SSD; track cache on an HDD).
	WriteCacheBytes int64
	// RandReadPenalty / RandWritePenalty are added when a command does
	// not continue the device's current sequential stream.
	RandReadPenalty  time.Duration
	RandWritePenalty time.Duration
	// FlushLatency is the cost of a cache-flush barrier.
	FlushLatency time.Duration
	// DiscardLatency is the per-TRIM command cost. Zero (the default for
	// both stock profiles) makes discard a timing-free hint, so
	// timing-pinned workloads stay bit-identical whether or not a file
	// system trims; set it non-zero to study TRIM storms.
	DiscardLatency time.Duration
}

// SamsungEVO860 models the paper's 250 GB SATA SSD: 567 MB/s peak reads,
// 502 MB/s writes dropping to 392 MB/s once the ~12 GB write cache is
// exhausted (§7).
func SamsungEVO860() Profile {
	return Profile{
		Name:             "ssd",
		Capacity:         250 << 30,
		CmdOverhead:      22 * time.Microsecond,
		SeqReadBW:        567e6,
		SeqWriteBW:       502e6,
		SustainedWriteBW: 392e6,
		WriteCacheBytes:  12 << 30,
		RandReadPenalty:  58 * time.Microsecond,
		RandWritePenalty: 130 * time.Microsecond,
		FlushLatency:     500 * time.Microsecond,
	}
}

// ToshibaDT01 models the paper's 500 GB 7200 RPM boot HDD, used by the HDD
// ablation: ~135 MB/s streaming, ~8 ms average seek plus rotational delay.
func ToshibaDT01() Profile {
	return Profile{
		Name:             "hdd",
		Capacity:         500 << 30,
		CmdOverhead:      90 * time.Microsecond,
		SeqReadBW:        135e6,
		SeqWriteBW:       135e6,
		SustainedWriteBW: 135e6,
		WriteCacheBytes:  64 << 20,
		RandReadPenalty:  11 * time.Millisecond,
		RandWritePenalty: 11 * time.Millisecond,
		FlushLatency:     12 * time.Millisecond,
	}
}

// Scale divides the capacity-like parameters of p by factor, so that scaled
// workloads exercise the same regimes (e.g. overflowing the write cache) as
// the paper's full-size runs.
func (p Profile) Scale(factor int64) Profile {
	if factor <= 1 {
		return p
	}
	p.Capacity /= factor
	p.WriteCacheBytes /= factor
	return p
}

// Dev is the standard simulated device. Storage is sparse: a 64 KiB chunk
// is taken from the process-wide chunk store (chunks.go) on first write,
// unwritten regions read as zeros, and a chunk that a discard drops whole
// goes back to the store (DESIGN.md §5.6).
//
// Submission entry points are serialized by a mutex, modeling the single
// hardware queue the timing model already assumes: concurrent submitters
// (the background flusher overlapping foreground reads, DESIGN.md §9) are
// ordered at the device, and each command's timing is computed atomically
// against the busy-until horizon. Single-goroutine runs take the
// uncontended lock and observe identical timing.
type Dev struct {
	env     *sim.Env
	profile Profile
	mu      sync.Mutex
	stats   Stats

	chunks *chunkTable

	busyUntil time.Duration
	readEnd   int64 // next sequential read offset
	writeEnd  int64 // next sequential write offset

	// Write-cache model: dirty bytes drain at SustainedWriteBW.
	cacheDirty   int64
	cacheUpdated time.Duration

	// Crash-injection support (see crash.go).
	trackUnflushed bool
	unflushed      []writeRecord

	mReadCount    *metrics.Counter
	mWriteCount   *metrics.Counter
	mReadBytes    *metrics.Counter
	mWriteBytes   *metrics.Counter
	mFlushCount   *metrics.Counter
	mReadSeq      *metrics.Counter
	mReadRand     *metrics.Counter
	mWriteSeq     *metrics.Counter
	mWriteRand    *metrics.Counter
	mReadSize     *metrics.Histogram
	mWriteSize    *metrics.Histogram
	mDiscardCount *metrics.Counter
	mDiscardBytes *metrics.Counter
	mChunkBytes   *metrics.Gauge
}

// New creates a device with the given profile.
func New(env *sim.Env, profile Profile) *Dev {
	reg := env.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Dev{
		env:           env,
		profile:       profile,
		chunks:        newChunkTable(&sharedChunks),
		mReadCount:    reg.Counter("blockdev.read.count"),
		mWriteCount:   reg.Counter("blockdev.write.count"),
		mReadBytes:    reg.Counter("blockdev.read.bytes"),
		mWriteBytes:   reg.Counter("blockdev.write.bytes"),
		mFlushCount:   reg.Counter("blockdev.flush.count"),
		mReadSeq:      reg.Counter("blockdev.read.seq"),
		mReadRand:     reg.Counter("blockdev.read.rand"),
		mWriteSeq:     reg.Counter("blockdev.write.seq"),
		mWriteRand:    reg.Counter("blockdev.write.rand"),
		mReadSize:     reg.Histogram("blockdev.read.size", "bytes"),
		mWriteSize:    reg.Histogram("blockdev.write.size", "bytes"),
		mDiscardCount: reg.Counter("blockdev.discard.count"),
		mDiscardBytes: reg.Counter("blockdev.discard.bytes"),
		mChunkBytes:   reg.Gauge("blockdev.chunk.bytes"),
	}
}

// Size returns the device capacity in bytes.
func (d *Dev) Size() int64 { return d.profile.Capacity }

// Stats returns cumulative I/O statistics.
func (d *Dev) Stats() *Stats { return &d.stats }

func (d *Dev) checkRange(n int, off int64, op string) {
	if off < 0 || off+int64(n) > d.profile.Capacity {
		panic(fmt.Sprintf("blockdev: %s out of range: off=%d len=%d cap=%d",
			op, off, n, d.profile.Capacity))
	}
}

// copyOut copies stored bytes into p without charging time.
func (d *Dev) copyOut(p []byte, off int64) {
	for n := 0; n < len(p); {
		ci := (off + int64(n)) / chunkSize
		co := (off + int64(n)) % chunkSize
		want := len(p) - n
		if max := int(chunkSize - co); want > max {
			want = max
		}
		if c, ok := d.chunks.m[ci]; ok {
			copy(p[n:n+want], c[co:])
		} else {
			for i := n; i < n+want; i++ {
				p[i] = 0
			}
		}
		n += want
	}
}

// copyIn stores bytes from p without charging time.
func (d *Dev) copyIn(p []byte, off int64) {
	for n := 0; n < len(p); {
		ci := (off + int64(n)) / chunkSize
		co := (off + int64(n)) % chunkSize
		want := len(p) - n
		if max := int(chunkSize - co); want > max {
			want = max
		}
		c, ok := d.chunks.m[ci]
		if !ok {
			c = d.chunks.add(ci, int(co), want)
			d.mChunkBytes.Add(chunkSize)
		}
		copy(c[co:], p[n:n+want])
		n += want
	}
}

// drainCache destages the write cache to flash during device-idle time.
// While the device is executing commands the flash backend is occupied by
// those commands, so only the gap between the previous busy period and the
// next command start drains the cache (at the sustained backend rate).
func (d *Dev) drainCache(start time.Duration) {
	idleFrom := d.busyUntil
	if d.cacheUpdated > idleFrom {
		idleFrom = d.cacheUpdated
	}
	if d.cacheDirty > 0 && start > idleFrom {
		drained := int64(float64(start-idleFrom) / float64(time.Second) * float64(d.profile.SustainedWriteBW))
		d.cacheDirty -= drained
		if d.cacheDirty < 0 {
			d.cacheDirty = 0
		}
	}
	d.cacheUpdated = start
}

func transfer(n int, bw int64) time.Duration {
	return time.Duration(float64(n) / float64(bw) * float64(time.Second))
}

// SubmitRead starts an asynchronous read.
func (d *Dev) SubmitRead(p []byte, off int64) Completion {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(len(p), off, "read")
	start := d.env.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	dur := d.profile.CmdOverhead + transfer(len(p), d.profile.SeqReadBW)
	if off != d.readEnd {
		dur += d.profile.RandReadPenalty
		d.stats.RandReads++
		d.mReadRand.Inc()
	} else {
		d.stats.SeqReads++
		d.mReadSeq.Inc()
	}
	d.readEnd = off + int64(len(p))
	d.busyUntil = start + dur
	d.stats.Reads++
	d.stats.BytesRead += int64(len(p))
	d.stats.BusyTime += dur
	d.mReadCount.Inc()
	d.mReadBytes.Add(int64(len(p)))
	d.mReadSize.Observe(int64(len(p)))
	d.copyOut(p, off)
	return Completion{At: d.busyUntil}
}

// SubmitWrite starts an asynchronous write.
func (d *Dev) SubmitWrite(p []byte, off int64) Completion {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(len(p), off, "write")
	start := d.env.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.drainCache(start)
	// Bytes that fit in the remaining write-cache space land at burst
	// speed; the rest bypass the cache at the sustained (post-cache) rate.
	fast := d.profile.WriteCacheBytes - d.cacheDirty
	if fast < 0 {
		fast = 0
	}
	if fast > int64(len(p)) {
		fast = int64(len(p))
	}
	slow := int64(len(p)) - fast
	dur := d.profile.CmdOverhead +
		transfer(int(fast), d.profile.SeqWriteBW) +
		transfer(int(slow), d.profile.SustainedWriteBW)
	if off != d.writeEnd {
		dur += d.profile.RandWritePenalty
		d.stats.RandWrites++
		d.mWriteRand.Inc()
	} else {
		d.stats.SeqWrites++
		d.mWriteSeq.Inc()
	}
	d.writeEnd = off + int64(len(p))
	d.cacheDirty += fast
	d.busyUntil = start + dur
	d.stats.Writes++
	d.stats.BytesWritten += int64(len(p))
	d.stats.BusyTime += dur
	d.mWriteCount.Inc()
	d.mWriteBytes.Add(int64(len(p)))
	d.mWriteSize.Observe(int64(len(p)))
	if d.trackUnflushed {
		d.recordUnflushed(p, off)
	}
	d.copyIn(p, off)
	return Completion{At: d.busyUntil}
}

// Wait advances the clock to the completion time of c and returns the
// command's outcome.
func (d *Dev) Wait(c Completion) error {
	d.env.Clock.AdvanceTo(c.At)
	return c.Err
}

// ReadAt synchronously reads len(p) bytes at off.
func (d *Dev) ReadAt(p []byte, off int64) error {
	return d.Wait(d.SubmitRead(p, off))
}

// WriteAt synchronously writes len(p) bytes at off.
func (d *Dev) WriteAt(p []byte, off int64) error {
	return d.Wait(d.SubmitWrite(p, off))
}

// Flush drains the queue and volatile cache; after Flush returns, all prior
// writes are durable (crash injection will not revert them).
func (d *Dev) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.env.Clock.AdvanceTo(d.busyUntil)
	d.env.Clock.Advance(d.profile.FlushLatency)
	d.busyUntil = d.env.Now()
	d.stats.Flushes++
	d.mFlushCount.Inc()
	if d.trackUnflushed {
		d.unflushed = d.unflushed[:0]
	}
	return nil
}

// Discard (TRIM) drops [off, off+length) from the device: the range reads
// back as zeroes and fully covered storage chunks are released. With the
// default DiscardLatency of zero the command charges no simulated time —
// discard is a hint, and the timing-pinned golden workloads must stay
// bit-identical whether or not a file system trims. Under crash tracking
// the zeroing is recorded like any unflushed write, so a Crash* call can
// revert it: a real TRIM is not durable until the next flush barrier
// either, which is exactly the window the free-vs-discard crash sweeps
// probe.
func (d *Dev) Discard(off, length int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.checkRange(int(length), off, "discard")
	if length == 0 {
		return nil
	}
	if d.profile.DiscardLatency > 0 {
		start := d.env.Now()
		if d.busyUntil > start {
			start = d.busyUntil
		}
		dur := d.profile.CmdOverhead + d.profile.DiscardLatency
		d.busyUntil = start + dur
		d.stats.BusyTime += dur
	}
	d.stats.Discards++
	d.stats.BytesDiscarded += length
	d.mDiscardCount.Inc()
	d.mDiscardBytes.Add(length)
	if d.trackUnflushed {
		zero := make([]byte, length)
		d.recordUnflushed(zero, off)
		d.copyIn(zero, off)
		return nil
	}
	d.zeroRange(off, length)
	return nil
}

// zeroRange zeroes [off, off+n) in place, giving the chunks the range fully
// covers back to the store so discarded space costs no memory.
func (d *Dev) zeroRange(off, n int64) {
	for n > 0 {
		ci := off / chunkSize
		co := off % chunkSize
		want := n
		if max := chunkSize - co; want > max {
			want = max
		}
		c, ok := d.chunks.m[ci]
		if ok && co == 0 && want == chunkSize {
			d.chunks.drop(ci)
			d.mChunkBytes.Add(-chunkSize)
		} else if ok {
			clear(c[co : co+want])
		}
		off += want
		n -= want
	}
}
