package fsserve_test

import (
	"bytes"
	"errors"
	"testing"

	"betrfs/internal/bench"
	"betrfs/internal/blockdev"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/registry"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// TestBlockOpsOverWire drives the block class (DESIGN.md §14.3) against
// a mount-less storage node: a registry exporting one device as a block
// share, served by a server with a nil default mount.
func TestBlockOpsOverWire(t *testing.T) {
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(256))
	reg := registry.New()
	reg.AddDevice("blk0", env, dev)
	cfg := fsserve.DefaultConfig()
	cfg.Registry = reg
	srv := fsserve.New(env, nil, cfg)
	defer srv.Shutdown()
	cli := dial(t, srv)

	h, size, err := cli.Bopen("blk0")
	if err != nil || h == 0 {
		t.Fatalf("bopen = %d, %v", h, err)
	}
	if size != dev.Size() {
		t.Fatalf("bopen size = %d, want %d", size, dev.Size())
	}
	if _, _, err := cli.Bopen("nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("bopen unknown share = %v, want ENOENT", err)
	}

	payload := bytes.Repeat([]byte{0x5a}, 2*blockdev.BlockSize)
	off := int64(16 * blockdev.BlockSize)
	if n, err := cli.Bwrite(h, off, payload); err != nil || n != len(payload) {
		t.Fatalf("bwrite = %d, %v", n, err)
	}
	if err := cli.Bflush(h); err != nil {
		t.Fatalf("bflush: %v", err)
	}
	got, err := cli.Bread(h, off, len(payload))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("bread round trip failed: %v", err)
	}
	// The write really landed on the shared device, not a wire-side copy.
	direct := make([]byte, len(payload))
	if err := dev.ReadAt(direct, off); err != nil || !bytes.Equal(direct, payload) {
		t.Fatalf("device image mismatch after bwrite: %v", err)
	}

	// TRIM through the wire: deterministic read-after-discard zeroes, and
	// the discard reaches the device's TRIM ledger.
	if err := cli.Bdiscard(h, off, int64(len(payload))); err != nil {
		t.Fatalf("bdiscard: %v", err)
	}
	got, err = cli.Bread(h, off, len(payload))
	if err != nil || !bytes.Equal(got, make([]byte, len(payload))) {
		t.Fatalf("bread after bdiscard not zeroed: %v", err)
	}
	if dev.Stats().Discards == 0 || dev.Stats().BytesDiscarded != int64(len(payload)) {
		t.Fatalf("discard did not reach the device: %+v", dev.Stats())
	}

	// Ranges outside the device answer EINVAL before reaching it: no
	// device panic for the server to catch, and no negative TRIM in the
	// device's ledger.
	counter := func(name string) int64 { return env.Metrics.Snapshot().Counters[name] }
	discarded := counter("blockdev.discard.bytes")
	inval := func(what string, err error) {
		t.Helper()
		if fsrpc.StatusOf(err) != fsrpc.StatusInval {
			t.Errorf("%s = %v, want EINVAL", what, err)
		}
	}
	_, err = cli.Bread(h, size, blockdev.BlockSize)
	inval("bread at the device end", err)
	_, err = cli.Bwrite(h, -blockdev.BlockSize, payload)
	inval("bwrite at a negative offset", err)
	inval("bdiscard of a negative length", cli.Bdiscard(h, off, -2*blockdev.BlockSize))
	if n := counter("fsserve.op.panic"); n != 0 {
		t.Errorf("fsserve.op.panic = %d, want 0", n)
	}
	if got := counter("blockdev.discard.bytes"); got < discarded {
		t.Errorf("blockdev.discard.bytes fell from %d to %d", discarded, got)
	}

	// Stale handle surfaces EBADF, like file handles.
	if _, err := cli.Bread(h+100, 0, 512); !errors.Is(err, fsrpc.ErrBadHandle) {
		t.Fatalf("bread stale handle = %v, want EBADF", err)
	}

	// File-class ops have no namespace on a block-only node.
	if err := cli.Mkdir("dir"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("mkdir on block-only node = %v, want ENOENT", err)
	}
	if _, _, err := cli.Lookup("x", false); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("lookup on block-only node = %v, want ENOENT", err)
	}
	// STATFS still answers (not degraded, no mount to degrade).
	if sf, err := cli.Statfs(); err != nil || sf.Degraded {
		t.Fatalf("statfs on block-only node = %+v, %v", sf, err)
	}

	ents, err := cli.Shares()
	if err != nil || len(ents) != 1 || ents[0].Name != "blk0" || ents[0].Dir {
		t.Fatalf("shares = %+v, %v", ents, err)
	}
}

// TestAttachOverWire exercises the control class: SHARES listing both
// share kinds and ATTACH rebinding the session's mount mid-connection
// while existing state keeps working.
func TestAttachOverWire(t *testing.T) {
	in := bench.Build("ext4", 256)
	in2 := bench.Build("ext4", 256)
	reg := registry.New()
	reg.AddMount("fs0", in.Env, in.Mount)
	reg.AddMount("fs1", in2.Env, in2.Mount)
	cfg := fsserve.DefaultConfig()
	cfg.Registry = reg
	srv := fsserve.New(in.Env, in.Mount, cfg)
	defer srv.Shutdown()
	cli := dial(t, srv)

	ents, err := cli.Shares()
	if err != nil || len(ents) != 2 {
		t.Fatalf("shares = %+v, %v", ents, err)
	}
	for _, e := range ents {
		if !e.Dir {
			t.Fatalf("mount share %q not flagged Dir", e.Name)
		}
	}

	if err := cli.Mkdir("only-fs0"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := cli.Attach("nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("attach unknown = %v, want ENOENT", err)
	}
	if err := cli.Attach("fs1"); err != nil {
		t.Fatalf("attach: %v", err)
	}
	// The session now sees fs1's namespace: fs0's directory is gone.
	if _, err := cli.Readdir("only-fs0"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("readdir after attach = %v, want ENOENT", err)
	}
	if err := cli.Mkdir("only-fs1"); err != nil {
		t.Fatalf("mkdir on fs1: %v", err)
	}
	// Attach back: fs0's namespace is intact.
	if err := cli.Attach("fs0"); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if _, err := cli.Readdir("only-fs0"); err != nil {
		t.Fatalf("fs0 namespace lost across attach: %v", err)
	}
	// A second connection still lands on the server's default mount.
	cli2 := dial(t, srv)
	if _, err := cli2.Readdir("only-fs0"); err != nil {
		t.Fatalf("default mount changed for new sessions: %v", err)
	}
}
