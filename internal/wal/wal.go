// Package wal implements the Bε-tree redo log engine of BetrFS v0.6.
//
// The log is a circular buffer in a statically allocated disk region (§3.1).
// Each entry carries a sequence number and a checksum used to validate
// integrity during recovery; a recovery hint (the caller persists it in its
// superblock) records a recent starting point for the scan.
//
// The log supports the reference counts on log sections that the
// conditional-logging optimization (§3.3) requires: a dirty VFS inode pins
// the section of the log holding its creation record until the inode is
// written into the Bε-tree, so the circular buffer cannot reclaim it.
package wal

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"betrfs/internal/metrics"
	"betrfs/internal/sim"
	"betrfs/internal/stor"
)

const (
	recMagic   = 0xbee7f00d
	headerSize = 4 + 4 + 4 + 8 + 1 // magic, epoch, len, lsn, type
	crcSize    = 4
)

// RecordType distinguishes log entries; the meaning of payloads belongs to
// the caller, except PadType which the log uses internally at wrap-around.
type RecordType byte

// PadType fills the tail of the region when a record would wrap.
const PadType RecordType = 0xff

// ErrLogFull is returned by Append when the circular region has no space;
// the caller must checkpoint (or release pins) and retry.
var ErrLogFull = errors.New("wal: log region full")

// Record is one recovered log entry.
type Record struct {
	LSN     uint64
	Type    RecordType
	Payload []byte
}

// Hint is the recovery starting point a caller persists in its superblock.
type Hint struct {
	Offset int64  // byte offset of the oldest live record
	LSN    uint64 // its sequence number
	Epoch  uint32 // log incarnation; records from other epochs are stale
}

// Log is a circular redo log over a fixed storage region.
//
// Methods are serialized by an internal mutex so the background flusher
// and concurrent readers of log state (free bytes, next LSN) never
// race with appends (DESIGN.md §9). The Bε-tree additionally orders all
// appends under its writer lock, so record order equals MSN order.
type Log struct {
	env   *sim.Env
	f     stor.File
	cap   int64
	epoch uint32

	mu sync.Mutex

	nextLSN uint64
	durable uint64 // highest LSN guaranteed on stable storage

	// head/tail are monotonically increasing byte positions; the disk
	// offset is position mod cap. Live bytes are [tail, head).
	head int64
	tail int64

	// discarded is the monotonic position up to which reclaimed log space
	// has been handed back to the device via TRIM. It trails tail by a
	// full checkpoint: ckptTail records the tail at the latest checkpoint,
	// before that checkpoint's own reclaim, and DiscardReclaimed trims only
	// below the tail the checkpoint BEFORE recorded. That is at or below
	// the recovery hint in the older of the two superblock slots recovery
	// can fall back to, so no recovery starting point any
	// crash-plus-corruption scenario selects lies inside a trimmed range.
	discarded int64
	ckptTail  int64

	// pending holds appended-but-unflushed bytes, destined for positions
	// [flushedTo, head).
	pending   []byte
	flushedTo int64

	// positions records (lsn, start position) so reclamation can find
	// the byte position of a given LSN.
	positions []lsnPos

	// pins maps LSN -> refcount; reclamation never passes the minimum
	// pinned LSN (conditional logging). pinOrder holds every LSN that
	// entered pins as a min-heap, so the oldest pin is found without
	// scanning the map; released LSNs stay in it until they surface at the
	// top (lazy deletion, see minPinned).
	pins     map[uint64]int
	pinOrder lsnHeap

	// SyncDelay models the synchronous commit path latency beyond the
	// device flush itself (context switches, plug/unplug); OLTP-style
	// fsync-heavy workloads are sensitive to it.
	SyncDelay time.Duration

	// Pre-resolved registry instruments (see internal/metrics).
	mAppend       *metrics.Counter
	mFsync        *metrics.Counter
	mWriteOut     *metrics.Counter
	mBytes        *metrics.Counter
	mPad          *metrics.Counter
	mPinBlocked   *metrics.Counter
	mDiscardCount *metrics.Counter
	mDiscardBytes *metrics.Counter
}

type lsnPos struct {
	lsn uint64
	pos int64
}

// lsnHeap is a min-heap of LSNs (container/heap).
type lsnHeap []uint64

func (h lsnHeap) Len() int           { return len(h) }
func (h lsnHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h lsnHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *lsnHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *lsnHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// New creates a log over region f starting empty at LSN 1. The epoch
// distinguishes this incarnation of the log from stale bytes left by a
// previous one occupying the same region.
func New(env *sim.Env, f stor.File, epoch uint32) *Log {
	reg := env.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	// Pre-register the replay counter Recover increments, so the full
	// metric catalog is visible on a registry even before a recovery runs.
	reg.Counter("wal.replay.records")
	return &Log{
		env:           env,
		f:             f,
		cap:           f.Capacity(),
		epoch:         epoch,
		nextLSN:       1,
		pins:          make(map[uint64]int),
		mAppend:       reg.Counter("wal.append.count"),
		mFsync:        reg.Counter("wal.fsync.count"),
		mWriteOut:     reg.Counter("wal.writeout.count"),
		mBytes:        reg.Counter("wal.bytes.logged"),
		mPad:          reg.Counter("wal.bytes.pad"),
		mPinBlocked:   reg.Counter("wal.reclaim.pinblocked"),
		mDiscardCount: reg.Counter("wal.discard.count"),
		mDiscardBytes: reg.Counter("wal.discard.bytes"),
	}
}

// Epoch returns the log incarnation number.
func (l *Log) Epoch() uint32 { return l.epoch }

// NextLSN returns the LSN the next Append will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// FreeBytes returns how much circular space remains before Append fails.
func (l *Log) FreeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cap - (l.head - l.tail)
}

// LiveBytes returns the space occupied by unreclaimed records.
func (l *Log) LiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head - l.tail
}

func recordSize(payload int) int64 {
	return int64(headerSize + payload + crcSize)
}

func (l *Log) freeBytesLocked() int64 { return l.cap - (l.head - l.tail) }

// Append adds a record and returns its LSN. The record is buffered in
// memory until Flush. ErrLogFull means the caller must reclaim space.
func (l *Log) Append(t RecordType, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	need := recordSize(len(payload))
	if need > l.cap {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds log capacity %d", need, l.cap)
	}
	// Records never wrap: pad to the end of the region if necessary. A
	// sliver too small to hold even a pad record is skipped as implicit
	// filler; recovery applies the same rule.
	if rem := l.cap - l.head%l.cap; rem < need {
		if l.freeBytesLocked() < rem+need {
			return 0, ErrLogFull
		}
		if rem < int64(headerSize+crcSize) {
			l.pending = append(l.pending, make([]byte, rem)...)
			l.head += rem
			l.mPad.Add(rem)
		} else {
			l.appendPad(int(rem))
		}
	} else if l.freeBytesLocked() < need {
		return 0, ErrLogFull
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.positions = append(l.positions, lsnPos{lsn: lsn, pos: l.head})
	l.encode(t, lsn, payload)
	l.mAppend.Inc()
	l.mBytes.Add(need)
	l.env.Trace("wal", "append", "", int64(lsn))
	l.env.Charge(l.env.Costs.MessageOverhead)
	return lsn, nil
}

// appendPad emits a pad record of exactly n bytes (n >= header+crc).
func (l *Log) appendPad(n int) {
	payload := make([]byte, n-headerSize-crcSize)
	l.encode(PadType, 0, payload)
	l.mPad.Add(int64(n))
}

// encode appends one record — header, payload, CRC — straight onto the
// pending buffer.
func (l *Log) encode(t RecordType, lsn uint64, payload []byte) {
	start := len(l.pending)
	l.pending = binary.BigEndian.AppendUint32(l.pending, recMagic)
	l.pending = binary.BigEndian.AppendUint32(l.pending, l.epoch)
	l.pending = binary.BigEndian.AppendUint32(l.pending, uint32(len(payload)))
	l.pending = binary.BigEndian.AppendUint64(l.pending, lsn)
	l.pending = append(l.pending, byte(t))
	l.pending = append(l.pending, payload...)
	l.pending = binary.BigEndian.AppendUint32(l.pending, crc32.ChecksumIEEE(l.pending[start:]))
	n := len(l.pending) - start
	l.env.Serialize(n)
	l.env.Checksum(n)
	l.head += int64(n)
}

// WriteOut writes all pending records to the region without a
// durability barrier — background log writeback. The durable LSN does
// not advance; a crash may tear or drop the written tail, which recovery
// detects via record CRCs. On a device error the unwritten tail stays
// pending, so a later WriteOut or Flush retries it.
func (l *Log) WriteOut() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeOut()
}

func (l *Log) writeOut() error {
	if len(l.pending) == 0 {
		return nil
	}
	l.mWriteOut.Inc()
	// The pending buffer may straddle the wrap point only at pad
	// boundaries, so writes can be split at region end safely.
	data := l.pending
	pos := l.flushedTo
	for len(data) > 0 {
		off := pos % l.cap
		n := int64(len(data))
		if off+n > l.cap {
			n = l.cap - off
		}
		if err := l.f.WriteAt(data[:n], off); err != nil {
			// Keep everything from the failed write onward pending.
			l.pending = append(l.pending[:0:0], data...)
			l.flushedTo = pos
			return err
		}
		data = data[n:]
		pos += n
	}
	l.flushedTo = l.head
	l.pending = l.pending[:0]
	return nil
}

// Flush writes all pending records to the region and issues a durability
// barrier; afterwards the durable LSN covers everything appended so far.
// On error it does not advance: nothing new is promised durable.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.writeOut(); err != nil {
		return err
	}
	if err := l.f.Flush(); err != nil {
		return err
	}
	l.env.Charge(l.SyncDelay)
	l.durable = l.nextLSN - 1
	l.mFsync.Inc()
	l.env.Trace("wal", "fsync", "", int64(l.durable))
	return nil
}

// Pin prevents reclamation of the log at or beyond lsn; the returned
// function releases the pin. Used by conditional logging to keep inode
// creation records alive while the inode is only dirty in the VFS.
func (l *Log) Pin(lsn uint64) func() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pins[lsn] == 0 {
		heap.Push(&l.pinOrder, lsn)
	}
	l.pins[lsn]++
	released := false
	return func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if released {
			return
		}
		released = true
		if l.pins[lsn]--; l.pins[lsn] <= 0 {
			delete(l.pins, lsn)
		}
	}
}

// minPinned returns the oldest live pin, dropping released LSNs from the
// top of the heap on the way: each pin costs O(log n) over its life, however
// many are outstanding.
func (l *Log) minPinned() (uint64, bool) {
	for len(l.pinOrder) > 0 {
		if lsn := l.pinOrder[0]; l.pins[lsn] > 0 {
			return lsn, true
		}
		heap.Pop(&l.pinOrder)
	}
	return 0, false
}

// cut resolves a reclaim up to LSN upto against the pins: it returns how
// many leading entries of positions the reclaim drops, the tail position
// that results, and whether a pin stopped it short of upto.
func (l *Log) cut(upto uint64) (n int, tail int64, blocked bool) {
	if min, ok := l.minPinned(); ok && min < upto {
		upto, blocked = min, true
	}
	n = sort.Search(len(l.positions), func(i int) bool { return l.positions[i].lsn >= upto })
	switch {
	case n == 0:
		tail = l.tail
	case n < len(l.positions):
		// Tail moves to the start of the first live record.
		tail = l.positions[n].pos
	default:
		tail = l.head // everything reclaimed
	}
	return n, tail, blocked
}

// Reclaimable returns how many bytes Reclaim(NextLSN()) would free right
// now: from the tail to the oldest live pin, or to the head when nothing is
// pinned. Checkpoint policy uses it to skip a checkpoint that pins would
// keep from freeing log space.
func (l *Log) Reclaimable() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, tail, _ := l.cut(l.nextLSN)
	return tail - l.tail
}

// HintAfterReclaim returns the recovery hint Reclaim(upto) would return,
// without freeing anything. A checkpoint records it in the superblock it
// is about to make durable and reclaims only afterwards, so the space the
// previous superblock's hint still points into is not reused before the
// new one is on disk.
func (l *Log) HintAfterReclaim(upto uint64) Hint {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, _, _ := l.cut(upto)
	return l.hintFrom(n)
}

// Reclaim releases log space for all records with LSN < upto (typically
// the LSN of the last completed checkpoint), except that pinned sections
// survive. It returns the new recovery hint.
func (l *Log) Reclaim(upto uint64) Hint {
	l.mu.Lock()
	defer l.mu.Unlock()
	n, tail, blocked := l.cut(upto)
	if blocked {
		l.mPinBlocked.Inc()
	}
	l.tail = tail
	l.positions = l.positions[n:]
	return l.hintFrom(0)
}

// DiscardReclaimed trims reclaimed log space, telling the device's FTL
// the dead records no longer need preserving. The caller invokes it once
// per checkpoint, right after the new superblock is durable and before
// that checkpoint's Reclaim. Because the store keeps TWO superblock
// generations and may fall back to the older one, the trimmed range is
// aged: this call trims only below the tail captured by the PREVIOUS call,
// which is at or below the recovery hint embedded in the older durable
// slot, so no starting point recovery can select lies inside a trimmed
// range. Positions the ring has already
// physically reused for newer records are skipped, not trimmed. Discard
// failures are advisory and ignored — the space is simply not handed
// back.
func (l *Log) DiscardReclaimed() {
	l.mu.Lock()
	defer l.mu.Unlock()
	bound := l.ckptTail
	l.ckptTail = l.tail
	// Physical slots below head-cap hold newer records now; the dead
	// positions there are gone already and must not be touched.
	if reused := l.head - l.cap; l.discarded < reused {
		l.discarded = reused
	}
	for l.discarded < bound {
		off := l.discarded % l.cap
		n := bound - l.discarded
		if off+n > l.cap {
			n = l.cap - off // split at the wrap point
		}
		if err := l.f.Discard(off, n); err == nil {
			l.mDiscardCount.Inc()
			l.mDiscardBytes.Add(n)
		}
		l.discarded += n
	}
}

// Hint returns the current recovery starting point.
func (l *Log) Hint() Hint {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.hintFrom(0)
}

// hintFrom is the recovery starting point once the first n entries of
// positions are reclaimed.
func (l *Log) hintFrom(n int) Hint {
	if n >= len(l.positions) {
		return Hint{Offset: l.head % l.cap, LSN: l.nextLSN, Epoch: l.epoch}
	}
	return Hint{Offset: l.positions[n].pos % l.cap, LSN: l.positions[n].lsn, Epoch: l.epoch}
}

// Recover scans the region from hint, returning every valid record in LSN
// order. The scan stops at the first record that fails validation (torn
// write, stale data, or wrap past the end of the log); that is a normal
// end-of-log, not an error. A device read error aborts the scan and is
// returned alongside the records recovered so far — the caller decides
// whether a partially unreadable log is fatal for the mount. A hint that
// points outside the region is an error.
func Recover(env *sim.Env, f stor.File, hint Hint) ([]Record, error) {
	var mReplay *metrics.Counter
	if env.Metrics != nil {
		mReplay = env.Metrics.Counter("wal.replay.records")
	} else {
		mReplay = &metrics.Counter{}
	}
	capacity := f.Capacity()
	if hint.Offset < 0 || hint.Offset >= capacity && capacity > 0 {
		return nil, fmt.Errorf("wal: recovery hint offset %d outside the %d-byte log", hint.Offset, capacity)
	}
	var out []Record
	pos := hint.Offset
	want := hint.LSN
	// Bound the scan to one full pass around the region.
	for scanned := int64(0); scanned < capacity; {
		// Slivers at the region end too small for any record are
		// implicit filler (see Append); skip to the next lap.
		if rem := capacity - pos%capacity; rem < int64(headerSize+crcSize) {
			pos = (pos + rem) % capacity
			scanned += rem
			continue
		}
		var hdr [headerSize]byte
		if err := readWrapped(f, hdr[:], pos, capacity); err != nil {
			return out, err
		}
		if binary.BigEndian.Uint32(hdr[0:]) != recMagic {
			break
		}
		if binary.BigEndian.Uint32(hdr[4:]) != hint.Epoch {
			break // stale bytes from a previous log incarnation
		}
		plen := int64(binary.BigEndian.Uint32(hdr[8:]))
		lsn := binary.BigEndian.Uint64(hdr[12:])
		t := RecordType(hdr[20])
		total := recordSize(int(plen))
		if total > capacity-scanned {
			break
		}
		rec := make([]byte, total)
		if err := readWrapped(f, rec, pos, capacity); err != nil {
			return out, err
		}
		env.Checksum(len(rec))
		crc := binary.BigEndian.Uint32(rec[total-crcSize:])
		if crc32.ChecksumIEEE(rec[:total-crcSize]) != crc {
			break
		}
		if t != PadType {
			if lsn != want {
				break // out-of-sequence: stale data from a prior lap
			}
			out = append(out, Record{LSN: lsn, Type: t, Payload: append([]byte{}, rec[headerSize:total-crcSize]...)})
			mReplay.Inc()
			want = lsn + 1
		}
		pos = (pos + total) % capacity
		scanned += total
	}
	return out, nil
}

func readWrapped(f stor.File, p []byte, pos, capacity int64) error {
	off := pos % capacity
	n := int64(len(p))
	if off+n <= capacity {
		return f.ReadAt(p, off)
	}
	first := capacity - off
	if err := f.ReadAt(p[:first], off); err != nil {
		return err
	}
	return f.ReadAt(p[first:], 0)
}

// Capacity returns the size of the circular region in bytes.
func (l *Log) Capacity() int64 { return l.cap }
