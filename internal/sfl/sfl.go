// Package sfl implements the Simple File Layer of BetrFS v0.6 (§3.1): a
// storage backend that exposes exactly the named files the Bε-tree
// implementation needs — a superblock region, a circular log region, and
// one large extent per index — over a raw block device.
//
// SFL replaces the stacked ext4 southbound of BetrFS v0.4. Its properties
// are what the paper leans on: immutable metadata (the extents are
// statically allocated at format time, so there is no second journal to
// double-journal into), a direct-I/O interface that takes caller-owned
// buffers (no double buffering or page-cache copy), and synchronous writes
// that are exactly as synchronous as the caller asks for.
package sfl

import (
	"errors"
	"fmt"

	"betrfs/internal/blockdev"
	"betrfs/internal/metrics"
	"betrfs/internal/sim"
	"betrfs/internal/stor"
)

// Layout describes the static disk partitioning (Table 2 of the paper:
// 8 MB superblock, 2 GiB log, and the remainder split between the metadata
// and data indexes roughly 1:9). The regions lie in this order, each
// starting on the first RegionAlign boundary after the previous one ends.
type Layout struct {
	SuperBytes int64
	LogBytes   int64
	MetaBytes  int64
	DataBytes  int64
}

// RegionAlign is the boundary every region starts on: the FTL's erase
// block (ftl.DefaultConfig, 64 pages of 4 KiB). A region that started
// mid-block would make every block-aligned node write and trim in it
// straddle one more flash page and storage chunk than its size needs.
const RegionAlign = 256 << 10

// bases returns each region's device offset, in the order super, log,
// meta, data.
func (l Layout) bases() [4]int64 {
	var b [4]int64
	end := int64(0)
	for i, size := range [4]int64{l.SuperBytes, l.LogBytes, l.MetaBytes, l.DataBytes} {
		b[i] = (end + RegionAlign - 1) &^ (RegionAlign - 1)
		end = b[i] + size
	}
	return b
}

// ErrDeviceTooSmall reports a device that cannot hold the minimum layout.
var ErrDeviceTooSmall = errors.New("sfl: device too small for layout")

// DefaultLayout computes the Table 2 proportions for a device of the given
// capacity. The data region ends at the device's end and gives up the
// padding that aligns the regions (RegionAlign), so the sizes of the other
// three, and with them the log's wrap points, are those of the unaligned
// proportions. Devices too small for even the fixed regions yield a
// DataBytes of zero or less that New rejects with ErrDeviceTooSmall.
func DefaultLayout(capacity int64) Layout {
	l := Layout{
		SuperBytes: 8 << 20,
		LogBytes:   capacity / 125, // 2 GiB on a 250 GiB disk
	}
	if l.LogBytes < 4<<20 {
		l.LogBytes = 4 << 20
	}
	rest := capacity - l.SuperBytes - l.LogBytes
	if rest <= 0 {
		return l // New reports ErrDeviceTooSmall
	}
	l.MetaBytes = rest / 10
	l.DataBytes = capacity - l.bases()[3]
	return l
}

// SFL is the simple file layer over one block device.
type SFL struct {
	env    *sim.Env
	dev    blockdev.Device
	files  map[string]*file
	layout Layout

	mReadCount    *metrics.Counter
	mWriteCount   *metrics.Counter
	mReadBytes    *metrics.Counter
	mWriteBytes   *metrics.Counter
	mFlushCount   *metrics.Counter
	mDiscardCount *metrics.Counter
	mDiscardBytes *metrics.Counter
}

// New formats an SFL over dev with the given layout. A layout that does
// not fit the device — user-reachable through undersized devices or bad
// mkfs parameters — is an error, not a panic.
func New(env *sim.Env, dev blockdev.Device, layout Layout) (*SFL, error) {
	if layout.DataBytes <= 0 {
		return nil, ErrDeviceTooSmall
	}
	bases := layout.bases()
	if total := bases[3] + layout.DataBytes; total > dev.Size() {
		return nil, fmt.Errorf("sfl: layout (%d) exceeds device (%d): %w", total, dev.Size(), ErrDeviceTooSmall)
	}
	s := &SFL{env: env, dev: dev, files: make(map[string]*file), layout: layout}
	reg := env.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s.mReadCount = reg.Counter("sfl.read.count")
	s.mWriteCount = reg.Counter("sfl.write.count")
	s.mReadBytes = reg.Counter("sfl.read.bytes")
	s.mWriteBytes = reg.Counter("sfl.write.bytes")
	s.mFlushCount = reg.Counter("sfl.flush.count")
	s.mDiscardCount = reg.Counter("sfl.discard.count")
	s.mDiscardBytes = reg.Counter("sfl.discard.bytes")
	for i, f := range []struct {
		name string
		size int64
	}{
		{"super", layout.SuperBytes},
		{"log", layout.LogBytes},
		{"meta", layout.MetaBytes},
		{"data", layout.DataBytes},
	} {
		s.files[f.name] = &file{sfl: s, name: f.name, base: bases[i], size: f.size}
	}
	return s, nil
}

// NewDefault formats an SFL with the default layout for dev.
func NewDefault(env *sim.Env, dev blockdev.Device) (*SFL, error) {
	return New(env, dev, DefaultLayout(dev.Size()))
}

// File returns the named file; it panics on unknown names, as the file set
// is static by design.
func (s *SFL) File(name string) stor.File {
	f, ok := s.files[name]
	if !ok {
		panic(fmt.Sprintf("sfl: unknown file %q", name))
	}
	return f
}

// Layout returns the static partitioning.
func (s *SFL) Layout() Layout { return s.layout }

// DevOffset translates a file-relative offset to the absolute device
// offset, for tools that inject faults at (or reason about) the device
// level: betrfsck and the fault harness place bad ranges under specific
// node extents this way. Unknown names panic like File.
func (s *SFL) DevOffset(name string, off int64) int64 {
	f, ok := s.files[name]
	if !ok {
		panic(fmt.Sprintf("sfl: unknown file %q", name))
	}
	return f.base + off
}

// file is one static extent. I/O is direct: buffers belong to the caller
// and no intermediate cache exists.
type file struct {
	sfl  *SFL
	name string
	base int64
	size int64
}

func (f *file) check(n int, off int64) {
	if off < 0 || off+int64(n) > f.size {
		panic(fmt.Sprintf("sfl: %s I/O out of bounds: off=%d len=%d size=%d", f.name, off, n, f.size))
	}
}

// ReadAt synchronously reads len(p) bytes at off.
func (f *file) ReadAt(p []byte, off int64) error {
	f.check(len(p), off)
	f.sfl.mReadCount.Inc()
	f.sfl.mReadBytes.Add(int64(len(p)))
	return f.sfl.dev.ReadAt(p, f.base+off)
}

// WriteAt synchronously writes len(p) bytes at off.
func (f *file) WriteAt(p []byte, off int64) error {
	f.check(len(p), off)
	f.sfl.mWriteCount.Inc()
	f.sfl.mWriteBytes.Add(int64(len(p)))
	return f.sfl.dev.WriteAt(p, f.base+off)
}

// SubmitRead starts an asynchronous read.
func (f *file) SubmitRead(p []byte, off int64) stor.Wait {
	f.check(len(p), off)
	f.sfl.mReadCount.Inc()
	f.sfl.mReadBytes.Add(int64(len(p)))
	c := f.sfl.dev.SubmitRead(p, f.base+off)
	return func() error { return f.sfl.dev.Wait(c) }
}

// SubmitWrite starts an asynchronous write.
func (f *file) SubmitWrite(p []byte, off int64) stor.Wait {
	f.check(len(p), off)
	f.sfl.mWriteCount.Inc()
	f.sfl.mWriteBytes.Add(int64(len(p)))
	c := f.sfl.dev.SubmitWrite(p, f.base+off)
	return func() error { return f.sfl.dev.Wait(c) }
}

// Flush issues a device barrier.
func (f *file) Flush() error {
	f.sfl.mFlushCount.Inc()
	return f.sfl.dev.Flush()
}

// Discard passes the TRIM through to the device at the extent's base
// offset; the SFL owns the device directly (§2.1), so unlike the stacked
// southbound path the hint survives the translation.
func (f *file) Discard(off, length int64) error {
	f.check(int(length), off)
	f.sfl.mDiscardCount.Inc()
	f.sfl.mDiscardBytes.Add(length)
	return f.sfl.dev.Discard(f.base+off, length)
}

// Capacity returns the extent size.
func (f *file) Capacity() int64 { return f.size }
