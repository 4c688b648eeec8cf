package cowfs

import (
	"encoding/binary"
	"fmt"
	"time"

	"betrfs/internal/blobfs"
	"betrfs/internal/blockdev"
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

// zilEnc builds one intent-log record: an op byte, then big-endian
// 64-bit integers, length-prefixed strings and bytes, and one-byte bools.
type zilEnc []byte

func (e *zilEnc) i64(v int64)    { *e = binary.BigEndian.AppendUint64(*e, uint64(v)) }
func (e *zilEnc) str(s string)   { e.i64(int64(len(s))); *e = append(*e, s...) }
func (e *zilEnc) bytes(p []byte) { e.i64(int64(len(p))); *e = append(*e, p...) }
func (e *zilEnc) bool(v bool) {
	if v {
		*e = append(*e, 1)
	} else {
		*e = append(*e, 0)
	}
}

// zilRecord encodes a namespace mutation the core applied.
func zilRecord(op blobfs.Op) zilEnc {
	var e zilEnc
	switch op.Kind {
	case blobfs.OpCreate:
		e = zilEnc{byte(zilCreate)}
		e.i64(int64(op.Parent))
		e.str(op.Name)
		e.i64(int64(op.Ino))
		e.bool(op.Dir)
	case blobfs.OpRemove:
		e = zilEnc{byte(zilRemove)}
		e.i64(int64(op.Parent))
		e.str(op.Name)
		e.i64(int64(op.Ino))
	case blobfs.OpRename:
		e = zilEnc{byte(zilRename)}
		e.i64(int64(op.Parent))
		e.str(op.Name)
		e.i64(int64(op.NewParent))
		e.str(op.NewName)
		e.i64(int64(op.Ino))
	case blobfs.OpAttr:
		e = zilEnc{byte(zilAttr)}
		e.i64(int64(op.Ino))
		e.i64(op.Size)
		e.i64(int64(op.Mtime))
	}
	return e
}

// logZil appends a record. It runs after the mutation it records, since a
// full log commits a txg, which must see the mutation.
func (fs *FS) logZil(rec zilEnc) {
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

type zilDec struct{ b []byte }

func (d *zilDec) op() zilOp { o := zilOp(d.b[0]); d.b = d.b[1:]; return o }
func (d *zilDec) i64() int64 {
	v := int64(binary.BigEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}
func (d *zilDec) str() string {
	n := d.i64()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
func (d *zilDec) bool() bool { v := d.b[0] == 1; d.b = d.b[1:]; return v }
func (d *zilDec) bytes() []byte {
	n := d.i64()
	p := append([]byte{}, d.b[:n]...)
	d.b = d.b[n:]
	return p
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
	if maxInos := blobfs.Ino(fs.imapLen / 2 / blobfs.LocSize); fs.NextIno > maxInos {
		fs.NextIno = maxInos
	}
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
		fs.replayZil(rec.Payload)
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

// replayZil applies one intent-log record. Records referencing inodes
// that did not survive recovery (dropped blobs) are skipped rather than
// left to panic — the oracle treats the files they describe as volatile.
func (fs *FS) replayZil(payload []byte) {
	d := &zilDec{b: payload}
	switch d.op() {
	case zilCreate:
		pino := blobfs.Ino(d.i64())
		name := d.str()
		ino := blobfs.Ino(d.i64())
		dir := d.bool()
		p, ok := fs.Inodes[pino]
		if !ok {
			return
		}
		if _, ok := p.Children[name]; ok {
			return
		}
		fs.Inodes[ino] = blobfs.NewNode(ino, dir, 0)
		fs.Table[ino] = blobfs.Loc{First: -1}
		p.Children[name] = blobfs.Child{Ino: ino, Dir: dir}
		p.Dirty = true
		if ino >= fs.NextIno {
			fs.NextIno = ino + 1
		}
	case zilRemove:
		pino := blobfs.Ino(d.i64())
		name := d.str()
		p, ok := fs.Inodes[pino]
		if !ok {
			return
		}
		delete(p.Children, name)
		p.Dirty = true
	case zilRename:
		opino := blobfs.Ino(d.i64())
		oldName := d.str()
		npino := blobfs.Ino(d.i64())
		newName := d.str()
		op, okOld := fs.Inodes[opino]
		np, okNew := fs.Inodes[npino]
		if !okOld || !okNew {
			return
		}
		if c, ok := op.Children[oldName]; ok {
			delete(op.Children, oldName)
			np.Children[newName] = c
			op.Dirty = true
			np.Dirty = true
		}
	case zilAttr:
		ino := blobfs.Ino(d.i64())
		size := d.i64()
		mtime := d.i64()
		n, ok := fs.Inodes[ino]
		if !ok {
			return
		}
		n.Size = size
		n.Mtime = time.Duration(mtime)
		n.Dirty = true
	case zilWrite:
		ino := blobfs.Ino(d.i64())
		blk := d.i64()
		data := d.bytes()
		n, ok := fs.Inodes[ino]
		if !ok {
			return
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
}
