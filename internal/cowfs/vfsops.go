package cowfs

import (
	"hash/crc32"
	"sort"

	"betrfs/internal/blobfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/codec"
	"betrfs/internal/ioerr"
	"betrfs/internal/vfs"
	"betrfs/internal/wal"
)

// vfs.FS operations beyond the shared core's. Handles are inode numbers.

// WriteBlocks writes a run of pages copy-on-write in record-sized units,
// with the old versions deferred-freed. Records are the unit of
// allocation and checksumming: a sub-record write to an allocated record
// must read the record's remaining blocks first and rewrite the whole
// record — the read-modify-write that makes small random writes so
// expensive on large-record CoW file systems (ZFS's 128 KiB recordsize).
func (fs *FS) WriteBlocks(h vfs.Handle, blk int64, pgs []*vfs.Page, durable bool) (err error) {
	defer ioerr.Guard(&err)
	if ferr := fs.WriteGate(); ferr != nil {
		return ferr
	}
	n := fs.Node(h.(blobfs.Ino))
	rb := int64(fs.prof.RecordBlocks)
	// Sub-record writes into existing data: expand to record boundaries
	// by reading the missing blocks (RMW), batched into one read per
	// side of the written range.
	if len(pgs) < fs.prof.RecordBlocks {
		rStart := blk / rb * rb
		rEnd := rStart + rb
		fileBlocks := (n.Size + BlockSize - 1) / BlockSize
		if rEnd > fileBlocks {
			rEnd = fileBlocks
		}
		// An extending write can land past the current EOF; the record
		// range must still cover every page the caller handed us, or the
		// expansion below would silently drop them.
		if end := blk + int64(len(pgs)); rEnd < end {
			rEnd = end
		}
		if rEnd > blk+int64(len(pgs)) || rStart < blk {
			allMapped := true
			for b := rStart; b < rEnd; b++ {
				if b >= blk && b < blk+int64(len(pgs)) {
					continue
				}
				if _, ok := n.Blocks[b]; !ok {
					allMapped = false
					break
				}
			}
			if allMapped && rEnd > rStart {
				expanded := make([]*vfs.Page, rEnd-rStart)
				var head, tail []*vfs.Page
				for b := rStart; b < rEnd; b++ {
					if b >= blk && b < blk+int64(len(pgs)) {
						expanded[b-rStart] = pgs[b-blk]
						continue
					}
					pg := &vfs.Page{Data: make([]byte, BlockSize)}
					expanded[b-rStart] = pg
					if b < blk {
						head = append(head, pg)
					} else {
						tail = append(tail, pg)
					}
				}
				if len(head) > 0 {
					ioerr.Check(fs.ReadBlocks(h, rStart, head, false))
				}
				if len(tail) > 0 {
					ioerr.Check(fs.ReadBlocks(h, blk+int64(len(pgs)), tail, false))
				}
				pgs = expanded
				blk = rStart
			}
		}
	}
	i := 0
	for i < len(pgs) {
		want := fs.prof.RecordBlocks
		if rem := len(pgs) - i; want > rem {
			want = rem
		}
		first, run := fs.alloc(int64(want))
		buf := make([]byte, run*BlockSize)
		for j := int64(0); j < run; j++ {
			l := blk + int64(i) + j
			if old, ok := n.Blocks[l]; ok {
				fs.deferFree(old)
			}
			copy(buf[j*BlockSize:], pgs[i+int(j)].Data)
			n.Blocks[l] = first + j
		}
		fs.DevCheck(fs.Dev.WriteAt(buf, fs.BlockAddr(first)))
		fs.Env.Checksum(len(buf))
		if durable {
			// fsync path: the ZIL logs the write intents with payload.
			for j := int64(0); j < run; j++ {
				fs.logZil(zilWriteRecord(n.Ino, blk+int64(i)+j, pgs[i+int(j)].Data))
			}
		}
		i += int(run)
	}
	n.Dirty = true
	return nil
}

// Fsync flushes the intent log (ZIL / log tree): much cheaper than a txg.
func (fs *FS) Fsync(h vfs.Handle) (err error) {
	defer ioerr.Guard(&err)
	if ferr := fs.WriteGate(); ferr != nil {
		return ferr
	}
	fs.DevCheck(fs.zil.Flush())
	fs.DevCheck(fs.Dev.Flush())
	return nil
}

// Maintain commits a txg when the interval has elapsed. No error return
// in the vfs.FS contract; failures latch the sticky abort.
func (fs *FS) Maintain() {
	var err error
	defer ioerr.Guard(&err)
	if fs.WriteGate() == nil && fs.Env.Now()-fs.lastTxg >= fs.prof.TxgInterval {
		fs.txgCommit()
	}
}

// txgCommit writes every dirty blob, the inode map, and the uberblock,
// then releases deferred frees.
func (fs *FS) txgCommit() {
	if fs.inTxg {
		return
	}
	fs.inTxg = true
	defer func() { fs.inTxg = false }()
	for _, n := range fs.Dirty() {
		fs.writeBlob(n)
	}
	// Three-phase flush: blobs must be durable before the imap that
	// references them, and the imap slot before the uberblock that
	// selects it — otherwise a reordered cache drain could persist a
	// root pointing at state the device never wrote.
	fs.DevCheck(fs.Dev.Flush())
	// The committed txg supersedes the intent log. Start a fresh log
	// incarnation (epoch bump) rather than reclaiming in place: the
	// uberblock records only the epoch, and recovery replays every
	// same-epoch record still physically present in the region, so
	// reclaimed-in-place records would be re-applied over the newer
	// committed state, resurrecting stale block maps.
	fs.zil = wal.New(fs.Env, blockdev.Region(fs.Dev, fs.zilOff, fs.zilLen), fs.zil.Epoch()+1)
	fs.writeImap()
	fs.DevCheck(fs.Dev.Flush())
	fs.writeUberblock()
	fs.DevCheck(fs.Dev.Flush())
	// The uberblock selecting the new generation is durable, so nothing
	// can reference the deferred blocks any more: free them and hand the
	// ranges to the device as TRIMs (coalesced into runs, the way ZFS
	// batches frees per txg) so the FTL stops migrating dead data.
	sort.Slice(fs.deferred, func(i, j int) bool { return fs.deferred[i] < fs.deferred[j] })
	for i := 0; i < len(fs.deferred); {
		run := int64(1)
		for i+int(run) < len(fs.deferred) && fs.deferred[i+int(run)] == fs.deferred[i]+run {
			run++
		}
		for j := int64(0); j < run; j++ {
			fs.bitClear(fs.deferred[i] + j)
		}
		// A TRIM is advice: if it fails, the FTL merely keeps migrating
		// the dead blocks.
		_ = fs.Dev.Discard(fs.BlockAddr(fs.deferred[i]), run*BlockSize)
		i += int(run)
	}
	fs.deferred = fs.deferred[:0]
	fs.lastTxg = fs.Env.Now()
}

// imapSlotBase returns the device offset of the imap copy that
// generation gen selects. The region is double-buffered like the
// uberblock ring: overwriting the live copy in place would let a torn
// imap write corrupt entries the previous generation still depends on.
func (fs *FS) imapSlotBase(gen uint64) int64 {
	return fs.imapOff + int64(gen%2)*(fs.imapLen/2)
}

// writeImap persists the inode map into the slot the next generation
// selects. The uberblock publishing that generation is written
// separately (writeUberblock) after the slot is flushed.
func (fs *FS) writeImap() {
	fs.generation++
	fs.WriteTable(fs.imapSlotBase(fs.generation))
	fs.Env.Serialize(int(fs.NextIno) * blobfs.LocSize)
}

// writeUberblock publishes the current generation; call only after the
// imap slot it selects is durable.
func (fs *FS) writeUberblock() {
	fs.DevCheck(fs.Dev.WriteAt(encodeUberblock(fs.generation, fs.NextIno, fs.zil.Epoch()),
		int64(fs.generation%2)*uberSlotSize))
}

// The uberblock is double-slotted like ZFS's uberblock ring: each txg
// writes the next generation to the alternate slot, so a torn uberblock
// write can never destroy the previous consistent root. A CRC over the
// slot makes tears detectable.
const (
	uberMagic    = 0xc0f5c0f5
	uberSlotSize = BlockSize / 2
	uberLen      = 28 // the encoded uberblock, CRC included; the rest of the slot is zero
)

func encodeUberblock(gen uint64, nextIno blobfs.Ino, zilEpoch uint32) []byte {
	e := codec.Encoder{Buf: make([]byte, 0, uberSlotSize)}
	e.U32(uberMagic)
	e.U64(uint64(nextIno))
	e.U32(zilEpoch)
	e.U64(gen)
	e.U32(crc32.ChecksumIEEE(e.Buf))
	return e.Buf[:uberSlotSize]
}

func decodeUberblock(sb []byte) (gen uint64, nextIno blobfs.Ino, zilEpoch uint32, ok bool) {
	d := codec.NewDecoder(sb)
	magic := d.U32()
	nextIno = blobfs.Ino(d.U64())
	zilEpoch = d.U32()
	gen = d.U64()
	sum := d.U32()
	if d.Err() != nil || magic != uberMagic || crc32.ChecksumIEEE(sb[:uberLen-4]) != sum {
		return 0, 0, 0, false
	}
	return gen, nextIno, zilEpoch, true
}
