// Package southbound implements the BetrFS v0.4 storage stacking (§2.2,
// Figure 1): the Bε-tree's files live as regular files on an ext4-like
// file system, reached through a klibc shim. This is the layer the Simple
// File Layer (§3.1) replaces in v0.6, and it deliberately reproduces the
// costs the paper attributes to stacking:
//
//   - double caching and copying: every write is copied into the lower
//     file system's page cache before it reaches the device;
//   - double journaling: synchronous Bε-tree log writes force ext4 journal
//     commits underneath the Bε-tree's own log;
//   - write-back interference ("stutters"): the lower page cache's dirty
//     accounting throttles the writer even though the net dirty page count
//     does not drop, charged as congestion-wait stalls.
package southbound

import (
	"fmt"
	"time"

	"betrfs/internal/extfs"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
	"betrfs/internal/stor"
)

// Layout mirrors the SFL file sizes so both backends are comparable.
type Layout struct {
	SuperBytes int64
	LogBytes   int64
	MetaBytes  int64
	DataBytes  int64
}

// DefaultLayout matches sfl.DefaultLayout proportions for the usable
// capacity of the lower file system.
func DefaultLayout(capacity int64) Layout {
	l := Layout{SuperBytes: 8 << 20, LogBytes: capacity / 125}
	if l.LogBytes < 4<<20 {
		l.LogBytes = 4 << 20
	}
	rest := capacity*3/4 - l.SuperBytes - l.LogBytes // leave ext4 headroom
	l.MetaBytes = rest / 10
	l.DataBytes = rest - l.MetaBytes
	return l
}

// Backend provides the named Bε-tree files over extfs.
type Backend struct {
	env   *sim.Env
	lower *extfs.FS
	files map[string]*sbFile

	// Double-buffering state shared across files: dirty bytes in the
	// lower page cache and their in-flight device writes.
	dirtyBytes int64
	pending    []pendingWrite

	// stallThreshold is the lower page cache's dirty watermark;
	// stallDelay is the congestion wait charged when a writer crosses
	// it (balance_dirty_pages-style sleeps).
	stallThreshold int64
	stallDelay     time.Duration

	stats Stats

	mReadCount      *metrics.Counter
	mWriteCount     *metrics.Counter
	mReadBytes      *metrics.Counter
	mWriteBytes     *metrics.Counter
	mFlushCount     *metrics.Counter
	mBytesCopied    *metrics.Counter
	mStallCount     *metrics.Counter
	mDiscardDropped *metrics.Counter
}

type pendingWrite struct {
	wait  func() error
	bytes int64
}

// Stats counts southbound activity.
type Stats struct {
	BytesCopied int64
	Stalls      int64
	Fsyncs      int64
}

// New builds the southbound backend, creating the four files on the lower
// file system.
func New(env *sim.Env, lower *extfs.FS, lay Layout) *Backend {
	b := &Backend{
		env:            env,
		lower:          lower,
		files:          make(map[string]*sbFile),
		stallThreshold: 32 << 20,
		stallDelay:     220 * time.Millisecond,
	}
	reg := env.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	b.mReadCount = reg.Counter("southbound.read.count")
	b.mWriteCount = reg.Counter("southbound.write.count")
	b.mReadBytes = reg.Counter("southbound.read.bytes")
	b.mWriteBytes = reg.Counter("southbound.write.bytes")
	b.mFlushCount = reg.Counter("southbound.flush.count")
	b.mBytesCopied = reg.Counter("southbound.bytes.copied")
	b.mStallCount = reg.Counter("southbound.stall.count")
	b.mDiscardDropped = reg.Counter("southbound.discard.dropped")
	for _, f := range []struct {
		name string
		size int64
	}{
		{"super", lay.SuperBytes},
		{"log", lay.LogBytes},
		{"meta", lay.MetaBytes},
		{"data", lay.DataBytes},
	} {
		b.files[f.name] = &sbFile{b: b, lf: lower.OpenLowLevel("betrfs."+f.name, f.size), size: f.size}
	}
	return b
}

// Stats returns counters.
func (b *Backend) Stats() *Stats { return &b.stats }

// File returns the named file.
func (b *Backend) File(name string) stor.File {
	f, ok := b.files[name]
	if !ok {
		panic(fmt.Sprintf("southbound: unknown file %q", name))
	}
	return f
}

// drainTo waits for in-flight lower writes until dirtyBytes <= target.
// The first write-back failure is returned; the drain keeps going so the
// dirty accounting stays consistent.
func (b *Backend) drainTo(target int64) error {
	var err error
	for b.dirtyBytes > target && len(b.pending) > 0 {
		p := b.pending[0]
		b.pending = b.pending[1:]
		if werr := p.wait(); werr != nil && err == nil {
			err = werr
		}
		b.dirtyBytes -= p.bytes
	}
	return err
}

// throttle models balance_dirty_pages: crossing the watermark forces the
// writer to sleep while the lower write-back drains — the "stutter" of
// §2.3, since the Bε-tree's writes re-dirty lower pages with no net
// progress on the dirty count.
func (b *Backend) throttle() error {
	if b.dirtyBytes <= b.stallThreshold {
		return nil
	}
	b.stats.Stalls++
	b.mStallCount.Inc()
	b.env.Trace("southbound", "stall", "", b.dirtyBytes)
	b.env.Charge(b.stallDelay)
	return b.drainTo(b.stallThreshold / 2)
}

// sbFile adapts one lower file to stor.File with the stacking costs.
type sbFile struct {
	b    *Backend
	lf   *extfs.ExtFile
	size int64
}

// ReadAt reads synchronously; the data crosses the lower page cache, so a
// copy is charged on top of the device read.
func (f *sbFile) ReadAt(p []byte, off int64) error {
	f.b.env.Memcpy(len(p))
	f.b.stats.BytesCopied += int64(len(p))
	f.b.mReadCount.Inc()
	f.b.mReadBytes.Add(int64(len(p)))
	f.b.mBytesCopied.Add(int64(len(p)))
	return f.lf.PRead(p, off)
}

// WriteAt copies into the lower page cache and issues the device write,
// throttling at the dirty watermark.
func (f *sbFile) WriteAt(p []byte, off int64) error {
	b := f.b
	b.env.Memcpy(len(p))
	b.stats.BytesCopied += int64(len(p))
	b.mWriteCount.Inc()
	b.mWriteBytes.Add(int64(len(p)))
	b.mBytesCopied.Add(int64(len(p)))
	wait := f.lf.SubmitPWrite(p, off)
	b.dirtyBytes += int64(len(p))
	b.pending = append(b.pending, pendingWrite{wait: wait, bytes: int64(len(p))})
	return b.throttle()
}

// SubmitRead starts an asynchronous read (still paying the cache copy).
func (f *sbFile) SubmitRead(p []byte, off int64) stor.Wait {
	f.b.env.Memcpy(len(p))
	f.b.stats.BytesCopied += int64(len(p))
	f.b.mReadCount.Inc()
	f.b.mReadBytes.Add(int64(len(p)))
	f.b.mBytesCopied.Add(int64(len(p)))
	err := f.lf.PRead(p, off) // lower read path is synchronous through the cache
	return func() error { return err }
}

// SubmitWrite behaves like WriteAt; the returned wait resolves eagerly
// because the lower cache already absorbed the data.
func (f *sbFile) SubmitWrite(p []byte, off int64) stor.Wait {
	err := f.WriteAt(p, off)
	return func() error { return err }
}

// Flush drains the lower cache and commits the lower journal: the
// double-journaling path of §2.3.
func (f *sbFile) Flush() error {
	b := f.b
	derr := b.drainTo(0)
	b.stats.Fsyncs++
	b.mFlushCount.Inc()
	if err := f.lf.Fsync(); err != nil {
		return err
	}
	return derr
}

// Discard drops the TRIM hint: the stacked path writes through a lower
// file system's files, and file offsets do not map to device LBAs the
// upper layer can trim (§2.3 — another cost of stacking). The counter
// records how much lifetime headroom the v0.4 design leaves on the table.
func (f *sbFile) Discard(off, length int64) error {
	f.b.mDiscardDropped.Inc()
	return nil
}

// Capacity returns the file size.
func (f *sbFile) Capacity() int64 { return f.size }
