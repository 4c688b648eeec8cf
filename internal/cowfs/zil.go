package cowfs

import (
	"fmt"
	"time"

	"betrfs/internal/blobfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/codec"
	"betrfs/internal/ioerr"
	"betrfs/internal/sim"
	"betrfs/internal/wal"
)

// The intent log (ZIL in ZFS, the log tree in Btrfs) makes fsync cheap:
// synchronous operations append small records to a dedicated region, and a
// crash replays them against the last committed txg.

type zilOp byte

const (
	zilCreate zilOp = iota + 1
	zilRemove
	zilRename
	zilWrite
	zilAttr
)

// A record is an op byte and then codec fields: big-endian 64-bit
// integers, strings and byte strings behind a 64-bit length, and one-byte
// bools.

func putStr(e *codec.Encoder, s string) {
	e.I64(int64(len(s)))
	e.String(s)
}

func getStr(d *codec.Decoder) string { return string(d.Take(int(d.I64()))) }

// zilRecord encodes a namespace mutation the core applied.
func zilRecord(op blobfs.Op) []byte {
	var e codec.Encoder
	switch op.Kind {
	case blobfs.OpCreate:
		e.U8(uint8(zilCreate))
		e.I64(int64(op.Parent))
		putStr(&e, op.Name)
		e.I64(int64(op.Ino))
		e.Bool(op.Dir)
	case blobfs.OpRemove:
		e.U8(uint8(zilRemove))
		e.I64(int64(op.Parent))
		putStr(&e, op.Name)
		e.I64(int64(op.Ino))
	case blobfs.OpRename:
		e.U8(uint8(zilRename))
		e.I64(int64(op.Parent))
		putStr(&e, op.Name)
		e.I64(int64(op.NewParent))
		putStr(&e, op.NewName)
		e.I64(int64(op.Ino))
	case blobfs.OpAttr:
		e.U8(uint8(zilAttr))
		e.I64(int64(op.Ino))
		e.I64(op.Size)
		e.I64(int64(op.Mtime))
	}
	return e.Buf
}

// zilWriteRecord encodes a write intent: the inode, the logical block and
// the block's data.
func zilWriteRecord(ino blobfs.Ino, blk int64, data []byte) []byte {
	e := codec.Encoder{Buf: make([]byte, 0, 25+len(data))}
	e.U8(uint8(zilWrite))
	e.I64(int64(ino))
	e.I64(blk)
	e.I64(int64(len(data)))
	e.Bytes(data)
	return e.Buf
}

// logZil appends a record. It runs after the mutation it records, since a
// full log commits a txg, which must see the mutation.
func (fs *FS) logZil(rec []byte) {
	if _, err := fs.zil.Append(wal.RecordType(1), rec); err == wal.ErrLogFull {
		fs.txgCommit()
		if _, err2 := fs.zil.Append(wal.RecordType(1), rec); err2 != nil {
			// Still full after a txg commit: the log region cannot hold
			// the record — a space problem, not a bug.
			ioerr.Check(fmt.Errorf("cowfs: intent log full after txg commit: %w", ioerr.ErrNoSpace))
		}
	} else if err != nil {
		ioerr.Check(err)
	}
}

// Recover mounts an existing cowfs from its uberblock, inode map, and
// intent log. A device error during recovery fails the mount.
func Recover(env *sim.Env, dev blockdev.Device, prof Profile) (rfs *FS, err error) {
	defer ioerr.Guard(&err)
	fs := New(env, dev, prof)
	// Pick the newest slot of the uberblock ring that passes its CRC; a
	// torn uberblock write then falls back to the previous generation
	// instead of mounting garbage.
	sb := make([]byte, BlockSize)
	if rerr := dev.ReadAt(sb, 0); rerr != nil {
		return nil, fmt.Errorf("cowfs: uberblock unreadable: %w", rerr)
	}
	var (
		zilEpoch uint32
		found    bool
	)
	for slot := 0; slot < 2; slot++ {
		gen, nextIno, epoch, ok := decodeUberblock(sb[slot*uberSlotSize : (slot+1)*uberSlotSize])
		if !ok || (found && gen <= fs.generation) {
			continue
		}
		fs.generation, fs.NextIno, zilEpoch, found = gen, nextIno, epoch, true
	}
	if !found {
		return nil, fmt.Errorf("cowfs: no valid uberblock")
	}
	if zilEpoch == 0 {
		zilEpoch = 1
	}
	// A corrupted nextIno cannot be trusted to bound the imap scan.
	fs.NextIno = min(fs.NextIno, fs.MaxInos())
	if err := fs.Load(fs.imapSlotBase(fs.generation), fs.claim); err != nil {
		return nil, err
	}
	// Replay the intent log against the committed state, scanning from
	// the region start in the epoch the uberblock recorded. An unreadable
	// log fails the mount: a truncated replay would lose fsynced state.
	recs, rerr := wal.Recover(env, blockdev.Region(dev, fs.zilOff, fs.zilLen), wal.Hint{Offset: 0, LSN: 1, Epoch: zilEpoch})
	if rerr != nil {
		return nil, fmt.Errorf("cowfs: intent log unreadable: %w", rerr)
	}
	for _, rec := range recs {
		if err := fs.replayZil(rec.Payload); err != nil {
			return nil, fmt.Errorf("cowfs: intent log record %d: %w", rec.LSN, err)
		}
	}
	fs.zil = wal.New(env, blockdev.Region(dev, fs.zilOff, fs.zilLen), zilEpoch+1)
	// Prune the entries whose inode was dropped and not resurrected by
	// the replay.
	fs.Prune()
	fs.txgCommit()
	return fs, nil
}

// claim marks a recovered inode's blob and data blocks allocated.
func (fs *FS) claim(n *blobfs.Node, loc blobfs.Loc) {
	for i := 0; i < loc.Count; i++ {
		fs.bitSet(loc.First + int64(i))
	}
	for _, b := range n.Blocks {
		fs.bitSet(b)
	}
}

// replayZil applies one intent-log record. All of its fields are decoded
// and checked before any is applied: a record that is short, has trailing
// bytes or an unknown op, creates an inode outside the inode map, writes a
// block that is not one or names a file as a parent is an EIO-class error. Records referencing
// inodes that did not survive recovery (dropped blobs) are skipped — the
// oracle treats the files they describe as volatile.
func (fs *FS) replayZil(payload []byte) error {
	d := codec.NewDecoder(payload)
	var (
		pino, npino, ino blobfs.Ino
		name, newName    string
		dir              bool
		size, mtime, blk int64
		data             []byte
	)
	kind := zilOp(d.U8())
	switch kind {
	case zilCreate:
		pino, name, ino, dir = blobfs.Ino(d.I64()), getStr(&d), blobfs.Ino(d.I64()), d.Bool()
	case zilRemove:
		pino, name, ino = blobfs.Ino(d.I64()), getStr(&d), blobfs.Ino(d.I64())
	case zilRename:
		pino, name, npino, newName, ino = blobfs.Ino(d.I64()), getStr(&d), blobfs.Ino(d.I64()), getStr(&d), blobfs.Ino(d.I64())
	case zilAttr:
		ino, size, mtime = blobfs.Ino(d.I64()), d.I64(), d.I64()
	case zilWrite:
		ino, blk, data = blobfs.Ino(d.I64()), d.I64(), d.Take(int(d.I64()))
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("%w: %w", ioerr.ErrIO, err)
	}
	switch {
	case kind < zilCreate || kind > zilAttr:
		return fmt.Errorf("unknown op %d: %w", kind, ioerr.ErrIO)
	case kind == zilCreate && (ino < blobfs.RootIno || ino >= fs.MaxInos()):
		return fmt.Errorf("create of inode %d outside the inode map: %w", ino, ioerr.ErrIO)
	case kind == zilWrite && (blk < 0 || len(data) > BlockSize):
		return fmt.Errorf("write of %d bytes to block %d: %w", len(data), blk, ioerr.ErrIO)
	}
	if kind == zilCreate || kind == zilRemove || kind == zilRename {
		for _, i := range [...]blobfs.Ino{pino, npino} {
			if n, ok := fs.Inodes[i]; ok && !n.Dir {
				return fmt.Errorf("parent inode %d is not a directory: %w", i, ioerr.ErrIO)
			}
		}
	}
	switch kind {
	case zilCreate:
		p, ok := fs.Inodes[pino]
		if !ok {
			return nil
		}
		if _, ok := p.Children[name]; ok {
			return nil
		}
		fs.Inodes[ino] = blobfs.NewNode(ino, dir, 0)
		fs.Table[ino] = blobfs.Loc{First: -1}
		p.Children[name] = blobfs.Child{Ino: ino, Dir: dir}
		p.Dirty = true
		if ino >= fs.NextIno {
			fs.NextIno = ino + 1
		}
	case zilRemove:
		p, ok := fs.Inodes[pino]
		if !ok {
			return nil
		}
		delete(p.Children, name)
		p.Dirty = true
	case zilRename:
		from, okFrom := fs.Inodes[pino]
		to, okTo := fs.Inodes[npino]
		if !okFrom || !okTo {
			return nil
		}
		if c, ok := from.Children[name]; ok {
			delete(from.Children, name)
			to.Children[newName] = c
			from.Dirty = true
			to.Dirty = true
		}
	case zilAttr:
		n, ok := fs.Inodes[ino]
		if !ok {
			return nil
		}
		n.Size = size
		n.Mtime = time.Duration(mtime)
		n.Dirty = true
	case zilWrite:
		n, ok := fs.Inodes[ino]
		if !ok {
			return nil
		}
		if old, ok := n.Blocks[blk]; ok {
			fs.deferFree(old)
		}
		b, _ := fs.alloc(1)
		padded := make([]byte, BlockSize)
		copy(padded, data)
		fs.DevCheck(fs.Dev.WriteAt(padded, fs.BlockAddr(b)))
		n.Blocks[blk] = b
		if int64(len(data)) > n.Size-blk*BlockSize {
			if sz := blk*BlockSize + int64(len(data)); sz > n.Size {
				n.Size = sz
			}
		}
		n.Dirty = true
	}
	return nil
}
