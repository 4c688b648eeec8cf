package extfs

import (
	"fmt"

	"betrfs/internal/blockdev"
	"betrfs/internal/codec"
	"betrfs/internal/ioerr"
	"betrfs/internal/sim"
	"betrfs/internal/wal"
)

// The extfs journal is JBD-flavored but logical: namespace and attribute
// operations are journaled as records, and the inode table plus directory
// blocks are checkpointed in place afterwards. In ordered mode file data
// never enters the journal; it reaches its in-place location before the
// transaction that references it commits (WriteBlock is synchronous and
// commit follows).

const (
	recCreate wal.RecordType = iota + 1
	recRemove
	recRename
	recAttr
	recExtentAdd
	recTruncate
)

type journal struct {
	log *wal.Log
}

func newJournal(env *sim.Env, dev blockdev.Device, off, length int64) *journal {
	return &journal{log: wal.New(env, blockdev.Region(dev, off, length), 1)}
}

// A journal record's fields are codec fields: big-endian 64-bit integers,
// strings behind a 64-bit length, and one-byte flags.

func putStr(e *codec.Encoder, s string) {
	e.I64(int64(len(s)))
	e.String(s)
}

func getStr(d *codec.Decoder) string { return string(d.Take(int(d.I64()))) }

func (fs *FS) logRec(t wal.RecordType, enc func(*codec.Encoder)) {
	var e codec.Encoder
	enc(&e)
	if _, err := fs.jnl.log.Append(t, e.Buf); err == wal.ErrLogFull {
		fs.writebackMeta()
		fs.devCheck(fs.jnl.log.Flush())
		fs.applyPendingFrees()
		fs.jnl.log.Reclaim(fs.jnl.log.NextLSN())
		if _, err2 := fs.jnl.log.Append(t, e.Buf); err2 != nil {
			// Still full after a checkpoint: the journal region cannot
			// hold the record — a space problem, not a bug.
			ioerr.Check(fmt.Errorf("extfs: journal full after checkpoint: %w", ioerr.ErrNoSpace))
		}
	} else if err != nil {
		ioerr.Check(err)
	}
}

// commit flushes the journal (a transaction commit with barrier). Once
// the records are durable, blocks they freed become reusable.
func (fs *FS) commit() {
	fs.devCheck(fs.jnl.log.Flush())
	fs.applyPendingFrees()
	fs.lastCommit = fs.env.Now()
}

// Maintain implements periodic commit and metadata write-back. It has no
// error return in the vfs.FS contract; write failures here are recorded
// sticky by devCheck and surface from the next mutating operation.
func (fs *FS) Maintain() {
	var err error
	defer ioerr.Guard(&err)
	if fs.env.Now()-fs.lastCommit >= fs.prof.CommitInterval {
		fs.commit()
	}
	// Checkpoint metadata when the journal fills up.
	if fs.jnl.log.FreeBytes() < fs.jnl.log.Capacity()/4 {
		fs.writebackMeta()
		fs.commit()
		fs.jnl.log.Reclaim(fs.jnl.log.NextLSN())
	}
}
