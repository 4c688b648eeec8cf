package fsserve_test

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"betrfs/internal/bench"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/vfs"
)

// dial connects a client to srv over an in-process pipe.
func dial(t *testing.T, srv *fsserve.Server) *fsrpc.Client {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	cli := fsrpc.NewClient(cliEnd)
	t.Cleanup(func() { cli.Close() })
	return cli
}

// TestBasicOpsOverWire drives every op once through a net.Pipe against a
// betrfs-v0.6 mount and checks the observable results.
func TestBasicOpsOverWire(t *testing.T) {
	in := bench.Build("betrfs-v0.6", 256)
	srv := fsserve.New(in.Env, in.Mount, fsserve.DefaultConfig())
	defer srv.Shutdown()
	cli := dial(t, srv)

	if err := cli.Mkdir("dir"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	h, attr, err := cli.Create("dir/file")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if attr.Dir || h == 0 {
		t.Fatalf("create returned dir=%v handle=%d", attr.Dir, h)
	}
	payload := bytes.Repeat([]byte{0xab}, 5000)
	n, err := cli.Write(h, 0, payload)
	if err != nil || n != len(payload) {
		t.Fatalf("write = %d, %v", n, err)
	}
	if err := cli.Fsync(h); err != nil {
		t.Fatalf("fsync: %v", err)
	}
	got, err := cli.Read(h, 0, len(payload))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back mismatch over the wire")
	}
	a, err := cli.Getattr("dir/file")
	if err != nil || a.Size != int64(len(payload)) {
		t.Fatalf("getattr = %+v, %v", a, err)
	}
	h2, a2, err := cli.Lookup("dir/file", true)
	if err != nil || h2 == 0 || a2.Size != a.Size {
		t.Fatalf("lookup = handle %d attr %+v, %v", h2, a2, err)
	}
	if _, da, err := cli.Lookup("dir", false); err != nil || !da.Dir {
		t.Fatalf("lookup dir = %+v, %v", da, err)
	}
	if err := cli.Rename("dir/file", "dir/file2"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	ents, err := cli.Readdir("dir")
	if err != nil || len(ents) != 1 || ents[0].Name != "file2" {
		t.Fatalf("readdir = %+v, %v", ents, err)
	}
	sf, err := cli.Statfs()
	if err != nil || sf.BlockSize != vfs.PageSize || sf.Degraded || sf.Sessions != 1 {
		t.Fatalf("statfs = %+v, %v", sf, err)
	}
	if err := cli.Unlink("dir/file2"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if err := cli.Rmdir("dir"); err != nil {
		t.Fatalf("rmdir: %v", err)
	}
	if _, err := cli.Readdir("dir"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("readdir removed dir = %v, want ENOENT", err)
	}
}

// TestErrnoSurfacesOverWire checks that namespace errors arrive as the
// same sentinels a direct mount caller sees.
func TestErrnoSurfacesOverWire(t *testing.T) {
	in := bench.Build("ext4", 256)
	srv := fsserve.New(in.Env, in.Mount, fsserve.DefaultConfig())
	defer srv.Shutdown()
	cli := dial(t, srv)

	if _, err := cli.Getattr("nope"); !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("getattr missing = %v, want ENOENT", err)
	}
	if err := cli.Mkdir("d"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Mkdir("d"); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("mkdir existing = %v, want EEXIST", err)
	}
	if err := cli.Unlink("d"); !errors.Is(err, vfs.ErrIsDir) {
		t.Fatalf("unlink dir = %v, want EISDIR", err)
	}
	if _, err := cli.Read(999, 0, 16); !errors.Is(err, fsrpc.ErrBadHandle) {
		t.Fatalf("read bad handle = %v, want EBADF", err)
	}
}

// TestHandleTableBounded checks FIFO eviction: the oldest handle turns
// EBADF once MaxHandles fresh ones displace it, and re-LOOKUP recovers.
func TestHandleTableBounded(t *testing.T) {
	in := bench.Build("ext4", 256)
	cfg := fsserve.DefaultConfig()
	cfg.MaxHandles = 4
	srv := fsserve.New(in.Env, in.Mount, cfg)
	defer srv.Shutdown()
	cli := dial(t, srv)

	first, _, err := cli.Create("f0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if _, _, err := cli.Create(string(rune('f')) + string(rune('0'+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cli.Read(first, 0, 1); !errors.Is(err, fsrpc.ErrBadHandle) {
		t.Fatalf("evicted handle = %v, want EBADF", err)
	}
	h, _, err := cli.Lookup("f0", true)
	if err != nil || h == 0 {
		t.Fatalf("re-lookup after eviction = %d, %v", h, err)
	}
	if _, err := cli.Read(h, 0, 1); err != nil {
		t.Fatalf("read via fresh handle: %v", err)
	}
}

// TestSessionsAreIndependent gives two connections their own handle
// spaces over one mount.
func TestSessionsAreIndependent(t *testing.T) {
	in := bench.Build("ext4", 256)
	srv := fsserve.New(in.Env, in.Mount, fsserve.DefaultConfig())
	defer srv.Shutdown()
	c1 := dial(t, srv)
	c2 := dial(t, srv)

	h1, _, err := c1.Create("shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Write(h1, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// c2 must not be able to use c1's handle number implicitly; its own
	// table is empty.
	if _, err := c2.Read(h1, 0, 5); !errors.Is(err, fsrpc.ErrBadHandle) {
		t.Fatalf("cross-session handle = %v, want EBADF", err)
	}
	// But the namespace is shared: c2 opens the same file by path.
	h2, _, err := c2.Lookup("shared", true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Read(h2, 0, 5)
	if err != nil || string(got) != "hello" {
		t.Fatalf("cross-session read = %q, %v", got, err)
	}
}

// TestFramesSharingAWriteAreAllServed: the session reads its transport
// through one buffered frame reader, so frames that arrive together in
// one write, and a frame split across two, are each served once. The
// burst is pipelined, so the mount is a concurrent one.
func TestFramesSharingAWriteAreAllServed(t *testing.T) {
	_, srv := pipelinedServer(t)
	c := dialRaw(t, srv)
	reqs := []*fsrpc.Request{
		{Op: fsrpc.OpMkdir, Tag: 1, Path: "d"},
		{Op: fsrpc.OpStatfs, Tag: 2},
		{Op: fsrpc.OpGetattr, Tag: 3, Path: ""},
		{Op: fsrpc.OpPing, Tag: 4},
		{Op: fsrpc.OpReaddir, Tag: 5, Path: ""},
	}
	var burst bytes.Buffer
	for _, q := range reqs {
		if err := fsrpc.WriteFrame(&burst, q.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	// Everything but the last frame's final byte in one write, then that
	// byte on its own. The pipe is synchronous and the server replies as
	// it reads, so the writes run beside the reads.
	b := burst.Bytes()
	go func() {
		for _, part := range [][]byte{b[:len(b)-1], b[len(b)-1:]} {
			if _, err := c.rw.Write(part); err != nil {
				return
			}
		}
	}()
	seen := map[uint64]bool{}
	for range reqs {
		r := c.recv()
		if r.Status != fsrpc.StatusOK || seen[r.Tag] || r.Tag < 1 || r.Tag > uint64(len(reqs)) || r.Op != reqs[r.Tag-1].Op {
			t.Fatalf("reply %s tag %d status %s (seen %v)", r.Op, r.Tag, r.Status, seen)
		}
		seen[r.Tag] = true
	}
}
