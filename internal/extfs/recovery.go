package extfs

import (
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"betrfs/internal/blockdev"
	"betrfs/internal/codec"
	"betrfs/internal/ioerr"
	"betrfs/internal/sim"
	"betrfs/internal/wal"
)

// Mount-time recovery: the superblock stores the journal recovery hint;
// the inode table is scanned fsck-style to rebuild the block bitmap and
// the inode allocator, then the journal is replayed.

const superMagic = 0xe47f5b10

func timeDuration(v int64) time.Duration { return time.Duration(v) }

func (fs *FS) inodeExists(ino Ino) bool {
	if _, ok := fs.inodes[ino]; ok {
		return true
	}
	if ino < rootIno {
		return false
	}
	// Range-check before itableBlockAddr, which panics out of range.
	addr := fs.lay.itableOff + int64(ino)/inodesPerBlock*BlockSize
	if addr+BlockSize > fs.lay.itableOff+fs.lay.itableLen {
		return false
	}
	buf := make([]byte, BlockSize)
	if fs.dev.ReadAt(buf, addr) != nil {
		return false // unreadable table block: treat the inode as lost
	}
	return buf[(int64(ino)%inodesPerBlock)*inodeSize] == 1
}

// The superblock is double-slotted: each write goes to the alternate
// half of block 0 with a generation number and a CRC, so a torn
// superblock write can never destroy the previous consistent copy.
const superSlotSize = BlockSize / 2

// writeSuper persists the superblock (journal hint + allocator state).
func (fs *FS) writeSuper() {
	fs.superGen++
	b := encodeSuper(fs.nextIno, fs.jnl.log.Hint(), fs.superGen)
	fs.devCheck(fs.dev.WriteAt(b, int64(fs.superGen%2)*superSlotSize))
	fs.devCheck(fs.dev.Flush())
}

// superLen is the encoded superblock's length, CRC included; the rest of
// its slot is zero.
const superLen = 44

// encodeSuper renders one superblock slot.
func encodeSuper(nextIno Ino, hint wal.Hint, gen uint64) []byte {
	e := codec.Encoder{Buf: make([]byte, 0, superSlotSize)}
	e.U32(superMagic)
	e.U64(uint64(nextIno))
	e.I64(hint.Offset)
	e.U64(hint.LSN)
	e.U32(hint.Epoch)
	e.U64(gen)
	e.U32(crc32.ChecksumIEEE(e.Buf))
	return e.Buf[:superSlotSize]
}

// decodeSuper parses one superblock slot; ok is false unless it holds a
// superblock whose CRC matches.
func decodeSuper(b []byte) (nextIno Ino, hint wal.Hint, gen uint64, ok bool) {
	d := codec.NewDecoder(b)
	magic := d.U32()
	nextIno = Ino(d.U64())
	hint = wal.Hint{Offset: d.I64(), LSN: d.U64(), Epoch: d.U32()}
	gen = d.U64()
	sum := d.U32()
	if d.Err() != nil || magic != superMagic || crc32.ChecksumIEEE(b[:superLen-4]) != sum {
		return 0, wal.Hint{}, 0, false
	}
	return nextIno, hint, gen, true
}

// readSuper picks the newest superblock slot that passes its CRC.
func readSuper(dev blockdev.Device) (nextIno Ino, hint wal.Hint, gen uint64, err error) {
	sb := make([]byte, BlockSize)
	if rerr := dev.ReadAt(sb, 0); rerr != nil {
		return 0, wal.Hint{}, 0, fmt.Errorf("extfs: superblock unreadable: %w", rerr)
	}
	found := false
	for slot := 0; slot < 2; slot++ {
		n, h, g, ok := decodeSuper(sb[slot*superSlotSize : (slot+1)*superSlotSize])
		if !ok || (found && g <= gen) {
			continue
		}
		nextIno, hint, gen, found = n, h, g, true
	}
	if !found {
		return 0, wal.Hint{}, 0, fmt.Errorf("extfs: no valid superblock")
	}
	return nextIno, hint, gen, nil
}

// Recover mounts an existing extfs: superblock, fsck scan, journal replay.
// A device error during recovery fails the mount (returned, not panicked).
func Recover(env *sim.Env, dev blockdev.Device, prof Profile) (rfs *FS, err error) {
	defer ioerr.Guard(&err)
	fs := New(env, dev, prof)
	// New() created a fresh root; discard that state and reload.
	fs.inodes = make(map[Ino]*xinode)
	fs.itableDirty = make(map[int64]bool)
	for i := range fs.bitmap {
		fs.bitmap[i] = 0
	}

	nextIno, hint, gen, err := readSuper(dev)
	if err != nil {
		return nil, err
	}
	fs.nextIno = nextIno
	fs.superGen = gen
	// A corrupted nextIno cannot be trusted to bound the table scan.
	if fs.nextIno > fs.maxInodes() {
		fs.nextIno = fs.maxInodes()
	}

	// fsck pass: scan the inode table, rebuilding the bitmap from extent
	// lists and finding the highest inode number. Inodes that fail
	// validation — torn table writes, corrupted extents — are dropped and
	// tombstoned; they described un-synced state.
	maxIno := rootIno
	tableBlocks := fs.lay.itableLen / BlockSize
	buf := make([]byte, BlockSize)
	for tb := int64(0); tb < tableBlocks; tb++ {
		firstIno := tb * inodesPerBlock
		if Ino(firstIno) >= fs.nextIno {
			break
		}
		if rerr := fs.dev.ReadAt(buf, fs.lay.itableOff+tb*BlockSize); rerr != nil {
			return nil, fmt.Errorf("extfs: inode table block %d unreadable: %w", tb, rerr)
		}
		for i := int64(0); i < inodesPerBlock; i++ {
			ino := Ino(firstIno + i)
			if ino < rootIno {
				continue
			}
			if buf[i*inodeSize] != 1 {
				continue
			}
			x, err := fs.readInode(ino) // cached table block; accounting only
			if err != nil {
				fs.erased = append(fs.erased, ino)
				continue
			}
			fs.inodes[ino] = x
			for _, e := range x.extents {
				for j := int64(0); j < e.count; j++ {
					fs.bitSet(e.phys + j)
				}
			}
			for _, ob := range x.overflow {
				fs.bitSet(ob)
			}
			if ino > maxIno {
				maxIno = ino
			}
		}
	}
	if maxIno+1 > fs.nextIno {
		fs.nextIno = maxIno + 1
	}
	if _, ok := fs.inodes[rootIno]; !ok {
		root := &xinode{ino: rootIno, dir: true, nlink: 2, children: map[string]dirent{}, childrenLoaded: true}
		fs.inodes[rootIno] = root
		fs.markInodeDirty(root)
	}

	// Journal replay. An unreadable journal fails the mount: replaying a
	// truncated log would silently lose committed operations.
	region := blockdev.Region(dev, fs.lay.journalOff, fs.lay.journalLen)
	recs, rerr := wal.Recover(env, region, hint)
	if rerr != nil {
		return nil, fmt.Errorf("extfs: journal unreadable: %w", rerr)
	}
	for _, rec := range recs {
		if err := fs.replayRecord(rec); err != nil {
			return nil, err
		}
	}
	fs.jnl.log = wal.New(env, region, hint.Epoch+1)
	// Prune dangling directory entries — children whose inode was
	// dropped by the fsck pass and not resurrected by journal replay.
	var dirs []*xinode
	for _, x := range fs.inodes {
		if x.dir {
			dirs = append(dirs, x)
		}
	}
	// Visit in inode order: dirs was collected from a map walk and
	// loadDir charges device reads, so order affects simulated timing.
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].ino < dirs[j].ino })
	for _, x := range dirs {
		fs.loadDir(x)
		for name, d := range x.children {
			if _, ok := fs.inodeIfPresent(d.ino); !ok {
				delete(x.children, name)
				fs.markInodeDirty(x)
			}
		}
	}
	fs.writebackMeta()
	fs.writeSuper()
	return fs, nil
}
