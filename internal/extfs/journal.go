package extfs

import (
	"encoding/binary"
	"fmt"

	"betrfs/internal/blockdev"
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

type recEncoder struct{ b []byte }

func (e *recEncoder) i64(v int64) {
	var t [8]byte
	binary.BigEndian.PutUint64(t[:], uint64(v))
	e.b = append(e.b, t[:]...)
}
func (e *recEncoder) str(s string) {
	e.i64(int64(len(s)))
	e.b = append(e.b, s...)
}
func (e *recEncoder) flag(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

type recDecoder struct{ b []byte }

func (d *recDecoder) i64() int64 {
	v := int64(binary.BigEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}
func (d *recDecoder) str() string {
	n := d.i64()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}
func (d *recDecoder) flag() bool {
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

func (fs *FS) logRec(t wal.RecordType, enc func(*recEncoder)) {
	e := &recEncoder{}
	enc(e)
	if _, err := fs.jnl.log.Append(t, e.b); err == wal.ErrLogFull {
		fs.writebackMeta()
		fs.devCheck(fs.jnl.log.Flush())
		fs.applyPendingFrees()
		fs.jnl.log.Reclaim(fs.jnl.log.NextLSN())
		if _, err2 := fs.jnl.log.Append(t, e.b); err2 != nil {
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
