// Package ftl simulates the flash translation layer inside an SSD:
// erase-block geometry, a page-mapped logical-to-physical table,
// per-erase-block wear counters, and greedy garbage collection with
// valid-page migration. It wraps a blockdev.Device, so every file system
// in the repository — and every fault/crash wrapper — runs over it
// unchanged (DESIGN.md §12).
//
// The layer is accounting-only with respect to data: bytes still live at
// their logical offsets in the wrapped device, and reads and writes pass
// straight through with their timing unchanged. What the FTL adds is the
// device-lifetime ledger the paper's evaluation never shows — how many
// flash pages each host write really costs once garbage collection starts
// migrating valid data (write amplification, surfaced as the io.waf
// gauge), how erases distribute across blocks (the ftl.wear histogram),
// and how much of that cost TRIM avoids by telling the device which pages
// are dead before GC pays to move them.
//
// Garbage collection runs foreground-on-demand on the simulated clock:
// when free erase blocks fall to the low-water mark, the triggering write
// performs the collection and (when the Config carries non-zero
// latencies) absorbs its cost into the write's completion time — the
// "GC-induced latency spike" of a real device under churn. With the
// default zero latencies the FTL charges no time at all, keeping the
// timing-pinned golden benchmark cells bit-identical.
package ftl

import (
	"sync"
	"time"

	"betrfs/internal/blockdev"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
)

// Config fixes the simulated geometry and GC policy.
type Config struct {
	// PageSize is the flash program granularity in bytes. Host writes
	// smaller than a page still program a whole page (read-modify-write),
	// which is one source of write amplification.
	PageSize int64
	// PagesPerBlock is the erase-block size in pages.
	PagesPerBlock int64
	// OverProvision is the fraction of extra physical space beyond the
	// logical capacity (consumer SSDs ship ~7%).
	OverProvision float64
	// GCFreeBlocks is the low-water mark: garbage collection runs while
	// the free erase-block pool is at or below it.
	GCFreeBlocks int64
	// ReadLatency / ProgramLatency are the per-page costs of GC valid-page
	// migration; EraseLatency is the per-block erase cost. All charged to
	// the completion time of the write that triggered the collection.
	// Zero (the default) makes the FTL timing-free.
	ReadLatency    time.Duration
	ProgramLatency time.Duration
	EraseLatency   time.Duration
	// DisableTrim makes the FTL ignore discards for mapping purposes
	// (the pages stay valid until overwritten), modeling a device or bus
	// that drops TRIM. Data semantics are unchanged — the discard is
	// still forwarded to the wrapped device — so a no-TRIM control run
	// differs from its TRIM-aware twin only in the lifetime ledger.
	DisableTrim bool
}

// DefaultConfig is a 4 KiB-page, 256 KiB-erase-block geometry with 7%
// over-provisioning and zero latencies.
func DefaultConfig() Config {
	return Config{
		PageSize:      4096,
		PagesPerBlock: 64,
		OverProvision: 0.07,
		GCFreeBlocks:  4,
	}
}

const unmapped = int32(-1)

// eraseBlock tracks one erase block's lifecycle.
type eraseBlock struct {
	frontier int64 // next unprogrammed page index within the block
	valid    int64 // pages holding live (mapped) data
	wear     int64 // erase count
}

// Dev wraps a blockdev.Device with FTL accounting. It implements
// blockdev.Device, so it can sit anywhere in the fault/retry/crash stack.
type Dev struct {
	env *sim.Env
	dev blockdev.Device
	cfg Config

	mu sync.Mutex

	logicalPages int64
	physBlocks   int64

	forward []int32 // logical page -> physical page (unmapped)
	reverse []int32 // physical page -> logical page (unmapped = invalid/unwritten)
	blocks  []eraseBlock
	free    []int64 // erased blocks, FIFO
	openHst int64   // open block receiving host programs (-1 = none)
	openGC  int64   // open block receiving GC migrations (-1 = none)

	hostBytes  int64
	flashBytes int64

	mHostBytes  *metrics.Counter
	mFlashBytes *metrics.Counter
	mGCRun      *metrics.Counter
	mGCPages    *metrics.Counter
	mGCBytes    *metrics.Counter
	mErase      *metrics.Counter
	mTrimCount  *metrics.Counter
	mTrimBytes  *metrics.Counter
	mWear       *metrics.Histogram
	gWAF        *metrics.Gauge
}

// New wraps dev with an FTL of the given geometry. Physical capacity is
// the logical capacity plus over-provisioning, rounded up to whole erase
// blocks, with enough headroom that GC always has a free block to migrate
// into.
func New(env *sim.Env, dev blockdev.Device, cfg Config) *Dev {
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if cfg.PagesPerBlock <= 0 {
		cfg.PagesPerBlock = 64
	}
	if cfg.GCFreeBlocks < 1 {
		cfg.GCFreeBlocks = 1
	}
	logicalPages := (dev.Size() + cfg.PageSize - 1) / cfg.PageSize
	logicalBlocks := (logicalPages + cfg.PagesPerBlock - 1) / cfg.PagesPerBlock
	physPages := int64(float64(logicalPages) * (1 + cfg.OverProvision))
	physBlocks := (physPages + cfg.PagesPerBlock - 1) / cfg.PagesPerBlock
	// GC migrates into blocks popped from the free pool, so the pool must
	// be deeper than the low-water mark even with every logical page live.
	if min := logicalBlocks + cfg.GCFreeBlocks + 2; physBlocks < min {
		physBlocks = min
	}
	reg := env.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	d := &Dev{
		env:          env,
		dev:          dev,
		cfg:          cfg,
		logicalPages: logicalPages,
		physBlocks:   physBlocks,
		forward:      make([]int32, logicalPages),
		reverse:      make([]int32, physBlocks*cfg.PagesPerBlock),
		blocks:       make([]eraseBlock, physBlocks),
		openHst:      -1,
		openGC:       -1,
		mHostBytes:   reg.Counter("ftl.write.host.bytes"),
		mFlashBytes:  reg.Counter("ftl.write.flash.bytes"),
		mGCRun:       reg.Counter("ftl.gc.run"),
		mGCPages:     reg.Counter("ftl.gc.moved.pages"),
		mGCBytes:     reg.Counter("ftl.gc.moved.bytes"),
		mErase:       reg.Counter("ftl.erase.count"),
		mTrimCount:   reg.Counter("ftl.trim.count"),
		mTrimBytes:   reg.Counter("ftl.trim.bytes"),
		mWear:        reg.Histogram("ftl.wear", "erases"),
		gWAF:         reg.Gauge("io.waf"),
	}
	for i := range d.forward {
		d.forward[i] = unmapped
	}
	for i := range d.reverse {
		d.reverse[i] = unmapped
	}
	for b := int64(0); b < physBlocks; b++ {
		d.free = append(d.free, b)
	}
	return d
}

// Size returns the logical capacity (the wrapped device's size); the
// over-provisioned physical space is internal to the FTL.
func (d *Dev) Size() int64 { return d.dev.Size() }

// Stats returns the wrapped device's I/O statistics.
func (d *Dev) Stats() *blockdev.Stats { return d.dev.Stats() }

// WAFMilli returns the current write amplification factor in thousandths
// (flash bytes programmed per host byte written); 0 before any write.
func (d *Dev) WAFMilli() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wafMilliLocked()
}

func (d *Dev) wafMilliLocked() int64 {
	if d.hostBytes == 0 {
		return 0
	}
	return d.flashBytes * 1000 / d.hostBytes
}

// Erases returns the total erase count across all blocks.
func (d *Dev) Erases() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int64
	for i := range d.blocks {
		n += d.blocks[i].wear
	}
	return n
}

// account runs the FTL bookkeeping for a host write of n bytes at off and
// returns the simulated time any triggered garbage collection consumed.
func (d *Dev) account(off, n int64) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	var gcTime time.Duration
	first := off / d.cfg.PageSize
	last := (off + n - 1) / d.cfg.PageSize
	for lp := first; lp <= last; lp++ {
		gcTime += d.program(lp)
	}
	d.hostBytes += n
	d.mHostBytes.Add(n)
	d.gWAF.Set(d.wafMilliLocked())
	return gcTime
}

// program maps logical page lp to a fresh physical page, invalidating its
// previous home. Returns the GC time consumed, if allocation had to
// collect.
func (d *Dev) program(lp int64) time.Duration {
	if pp := d.forward[lp]; pp != unmapped {
		d.invalidate(int64(pp))
	}
	pp, gcTime := d.allocPage(&d.openHst)
	d.forward[lp] = int32(pp)
	d.reverse[pp] = int32(lp)
	d.blocks[pp/d.cfg.PagesPerBlock].valid++
	d.flashBytes += d.cfg.PageSize
	d.mFlashBytes.Add(d.cfg.PageSize)
	return gcTime
}

// invalidate marks physical page pp dead.
func (d *Dev) invalidate(pp int64) {
	d.reverse[pp] = unmapped
	d.blocks[pp/d.cfg.PagesPerBlock].valid--
}

// allocPage returns the next page of the open block *open, sealing it and
// opening a fresh one (collecting if the free pool is low) when full.
func (d *Dev) allocPage(open *int64) (int64, time.Duration) {
	var gcTime time.Duration
	if *open < 0 || d.blocks[*open].frontier == d.cfg.PagesPerBlock {
		gcTime = d.collectIfLow()
		if len(d.free) == 0 {
			panic("ftl: free erase-block pool exhausted (geometry too small for GC)")
		}
		*open = d.free[0]
		d.free = d.free[1:]
	}
	b := &d.blocks[*open]
	pp := *open*d.cfg.PagesPerBlock + b.frontier
	b.frontier++
	return pp, gcTime
}

// collectIfLow runs greedy garbage collection while the free pool is at
// or below the low-water mark: pick the sealed block with the fewest
// valid pages (lowest index on ties — deterministic), migrate its valid
// pages into the GC open block, erase it, and return it to the pool.
func (d *Dev) collectIfLow() time.Duration {
	var gcTime time.Duration
	for int64(len(d.free)) <= d.cfg.GCFreeBlocks {
		victim := int64(-1)
		best := d.cfg.PagesPerBlock // only victims with something to gain
		for b := int64(0); b < d.physBlocks; b++ {
			if b == d.openHst || b == d.openGC {
				continue
			}
			blk := &d.blocks[b]
			if blk.frontier < d.cfg.PagesPerBlock {
				continue // not sealed: free or still open history
			}
			if blk.valid < best {
				best = blk.valid
				victim = b
			}
		}
		if victim < 0 {
			// Every sealed block is fully valid; erasing one would free
			// nothing. Over-provisioning guarantees this is transient.
			return gcTime
		}
		gcTime += d.collect(victim)
	}
	return gcTime
}

// collect migrates victim's valid pages and erases it.
func (d *Dev) collect(victim int64) time.Duration {
	var gcTime time.Duration
	moved := int64(0)
	base := victim * d.cfg.PagesPerBlock
	for i := int64(0); i < d.cfg.PagesPerBlock; i++ {
		lp := d.reverse[base+i]
		if lp == unmapped {
			continue
		}
		// Migrate: program the logical page into the GC open block.
		if d.openGC < 0 || d.blocks[d.openGC].frontier == d.cfg.PagesPerBlock {
			if len(d.free) == 0 {
				panic("ftl: free erase-block pool exhausted during GC")
			}
			d.openGC = d.free[0]
			d.free = d.free[1:]
		}
		gb := &d.blocks[d.openGC]
		np := d.openGC*d.cfg.PagesPerBlock + gb.frontier
		gb.frontier++
		gb.valid++
		d.forward[lp] = int32(np)
		d.reverse[np] = int32(lp)
		d.reverse[base+i] = unmapped
		moved++
		gcTime += d.cfg.ReadLatency + d.cfg.ProgramLatency
	}
	blk := &d.blocks[victim]
	blk.valid = 0
	blk.frontier = 0
	blk.wear++
	d.mErase.Inc()
	d.mWear.Observe(blk.wear)
	d.free = append(d.free, victim)
	d.mGCRun.Inc()
	d.mGCPages.Add(moved)
	d.mGCBytes.Add(moved * d.cfg.PageSize)
	d.flashBytes += moved * d.cfg.PageSize
	d.mFlashBytes.Add(moved * d.cfg.PageSize)
	gcTime += d.cfg.EraseLatency
	return gcTime
}

// SubmitWrite forwards the write and runs the FTL ledger; GC triggered by
// the write extends its completion time (the latency spike a real device
// shows when collection blocks the host queue).
func (d *Dev) SubmitWrite(p []byte, off int64) blockdev.Completion {
	c := d.dev.SubmitWrite(p, off)
	if c.Err != nil {
		return c
	}
	if gcTime := d.account(off, int64(len(p))); gcTime > 0 {
		c.At += gcTime
	}
	return c
}

// SubmitRead forwards the read unchanged: the mapping indirection is free
// in this model (the wrapped device's profile already includes nominal
// lookup costs).
func (d *Dev) SubmitRead(p []byte, off int64) blockdev.Completion {
	return d.dev.SubmitRead(p, off)
}

// WriteAt synchronously writes through the FTL.
func (d *Dev) WriteAt(p []byte, off int64) error {
	return d.Wait(d.SubmitWrite(p, off))
}

// ReadAt synchronously reads through the FTL.
func (d *Dev) ReadAt(p []byte, off int64) error {
	return d.dev.ReadAt(p, off)
}

// Wait advances the clock to c's completion time and returns its outcome.
func (d *Dev) Wait(c blockdev.Completion) error { return d.dev.Wait(c) }

// Flush forwards the barrier.
func (d *Dev) Flush() error { return d.dev.Flush() }

// Discard forwards the TRIM (data semantics — the range reads back as
// zeroes — belong to the wrapped device and are identical with or without
// DisableTrim) and unmaps every fully covered page, so GC stops paying to
// migrate dead data. Partially covered edge pages stay mapped, as on real
// devices that ignore sub-page trims.
func (d *Dev) Discard(off, length int64) error {
	if err := d.dev.Discard(off, length); err != nil {
		return err
	}
	if length <= 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mTrimCount.Inc()
	d.mTrimBytes.Add(length)
	if d.cfg.DisableTrim {
		return nil
	}
	first := (off + d.cfg.PageSize - 1) / d.cfg.PageSize // round up
	last := (off + length) / d.cfg.PageSize              // exclusive, round down
	for lp := first; lp < last; lp++ {
		if pp := d.forward[lp]; pp != unmapped {
			d.invalidate(int64(pp))
			d.forward[lp] = unmapped
		}
	}
	return nil
}
