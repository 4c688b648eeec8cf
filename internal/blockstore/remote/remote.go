// Package remote implements a blockdev.Device backed by another node's
// fsserved over the block-class fsrpc ops (DESIGN.md §14). Open names a
// block share in the remote registry; reads and writes are chunked at
// fsrpc.MaxData and errors surface as the same sentinels a local device
// returns (Status→Err round trip), so EIO from a faulty remote device
// classifies identically to EIO from a local one.
//
// Every command is a synchronous round trip: SubmitRead and SubmitWrite
// run it at once and complete at the caller's current simulated time.
// The device time it costs is charged to the storage node's clock, not
// the caller's.
package remote

import (
	"fmt"

	"betrfs/internal/blockdev"
	"betrfs/internal/fsrpc"
	"betrfs/internal/ioerr"
	"betrfs/internal/sim"
)

// Dev is a block share on a remote fsserved, reached through cli.
type Dev struct {
	env    *sim.Env
	cli    *fsrpc.Client
	handle uint64
	size   int64
}

// Open binds a remote block share by name for a caller on env. The
// returned device caches the share's capacity from the BOPEN reply; an
// unknown name surfaces as vfs.ErrNotExist.
func Open(env *sim.Env, cli *fsrpc.Client, name string) (*Dev, error) {
	h, size, err := cli.Bopen(name)
	if err != nil {
		return nil, fmt.Errorf("remote: open %q: %w", name, err)
	}
	return &Dev{env: env, cli: cli, handle: h, size: size}, nil
}

func (d *Dev) ReadAt(p []byte, off int64) error {
	for n := 0; n < len(p); {
		want := len(p) - n
		if want > fsrpc.MaxData {
			want = fsrpc.MaxData
		}
		data, err := d.cli.Bread(d.handle, off+int64(n), want)
		if err != nil {
			return err
		}
		if len(data) != want {
			// A block device has no EOF inside its capacity; a short BREAD
			// means the transfer was truncated in flight.
			return fmt.Errorf("remote: short read %d/%d at %d: %w",
				len(data), want, off+int64(n), ioerr.ErrIO)
		}
		copy(p[n:], data)
		n += want
	}
	return nil
}

func (d *Dev) WriteAt(p []byte, off int64) error {
	for n := 0; n < len(p); {
		want := len(p) - n
		if want > fsrpc.MaxData {
			want = fsrpc.MaxData
		}
		wrote, err := d.cli.Bwrite(d.handle, off+int64(n), p[n:n+want])
		if err != nil {
			return err
		}
		if wrote != want {
			return fmt.Errorf("remote: short write %d/%d at %d: %w",
				wrote, want, off+int64(n), ioerr.ErrIO)
		}
		n += want
	}
	return nil
}

// SubmitRead runs the read now and completes when it returns.
func (d *Dev) SubmitRead(p []byte, off int64) blockdev.Completion {
	err := d.ReadAt(p, off)
	return blockdev.Completion{At: d.env.Now(), Err: err}
}

// SubmitWrite runs the write now and completes when it returns.
func (d *Dev) SubmitWrite(p []byte, off int64) blockdev.Completion {
	err := d.WriteAt(p, off)
	return blockdev.Completion{At: d.env.Now(), Err: err}
}

// Wait returns c's outcome; the command already ran at submission.
func (d *Dev) Wait(c blockdev.Completion) error { return c.Err }

func (d *Dev) Flush() error { return d.cli.Bflush(d.handle) }

func (d *Dev) Discard(off, length int64) error {
	return d.cli.Bdiscard(d.handle, off, length)
}

func (d *Dev) Size() int64 { return d.size }
