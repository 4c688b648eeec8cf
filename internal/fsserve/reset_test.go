package fsserve_test

import (
	"errors"
	"fmt"
	"net"
	"testing"

	"betrfs/internal/bench"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/vfs"
)

// TestClientPoisonedAndReset covers the typed poisoning contract
// (DESIGN.md §11): a transport failure mid-protocol poisons the client
// with an error wrapping fsrpc.ErrPoisoned, every subsequent call fails
// fast with the same class, and Reset over a fresh connection restores
// service as a brand-new session — durable state is visible, but
// handles from the poisoned session are gone.
func TestClientPoisonedAndReset(t *testing.T) {
	in := bench.Build("betrfs-v0.6", 256)
	srv := fsserve.New(in.Env, in.Mount, fsserve.DefaultConfig())
	defer srv.Shutdown()

	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	cli := fsrpc.NewClient(cliEnd)
	defer cli.Close()

	if err := cli.Mkdir("dir"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	h, _, err := cli.Create("dir/file")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cli.Write(h, 0, []byte("payload")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := cli.Fsync(h); err != nil {
		t.Fatalf("fsync: %v", err)
	}

	// Kill the transport out from under the client: the in-flight call
	// dies at the frame layer and must poison the client with the typed
	// sentinel, not a bare io error.
	cliEnd.Close()
	err = cli.Mkdir("dir/lost")
	if err == nil {
		t.Fatal("call over a dead transport succeeded")
	}
	if !errors.Is(err, fsrpc.ErrPoisoned) {
		t.Fatalf("dead-transport error = %v, want ErrPoisoned class", err)
	}
	// Fail-fast: later calls return the poisoned state without touching
	// the wire, whatever the op.
	if _, err := cli.Read(h, 0, 4); !errors.Is(err, fsrpc.ErrPoisoned) {
		t.Fatalf("read on poisoned client = %v, want ErrPoisoned", err)
	}
	if _, err := cli.Getattr("dir/file"); !errors.Is(err, fsrpc.ErrPoisoned) {
		t.Fatalf("getattr on poisoned client = %v, want ErrPoisoned", err)
	}

	// Redial: Reset swaps in the fresh transport and clears the poison.
	cliEnd2, srvEnd2 := net.Pipe()
	go srv.ServeConn(srvEnd2)
	cli.Reset(cliEnd2)

	// Durable state from the old session is visible...
	a, err := cli.Getattr("dir/file")
	if err != nil {
		t.Fatalf("getattr after reset: %v", err)
	}
	if a.Size != int64(len("payload")) {
		t.Fatalf("dir/file size after reset = %d, want %d", a.Size, len("payload"))
	}
	// ...but handles do not survive the session boundary.
	if _, err := cli.Read(h, 0, 4); !errors.Is(err, fsrpc.ErrBadHandle) {
		t.Fatalf("stale handle after reset = %v, want ErrBadHandle", err)
	}
	// The poisoning call's fate was unknown; re-issuing it must land in
	// one of the two legal states (§11 idempotency caveat).
	if err := cli.Mkdir("dir/lost"); err != nil && !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("re-issued mkdir after reset = %v, want nil or EEXIST", err)
	}
	// And the new session is fully writable.
	h2, _, err := cli.Create("dir/file2")
	if err != nil {
		t.Fatalf("create after reset: %v", err)
	}
	if _, err := cli.Write(h2, 0, []byte("again")); err != nil {
		t.Fatalf("write after reset: %v", err)
	}
}

// TestStaleHandleNamesNothing: handle numbers are server-wide, so a handle
// kept across a Reset names no file of the new session even once that
// session has opened files of its own. A READ and a WRITE through it get
// EBADF, and the WRITE lands nowhere.
func TestStaleHandleNamesNothing(t *testing.T) {
	in := bench.Build("betrfs-v0.6", 256)
	srv := fsserve.New(in.Env, in.Mount, fsserve.DefaultConfig())
	defer srv.Shutdown()
	cli := dial(t, srv)
	stale, _, err := cli.Create("old")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Write(stale, 0, []byte("old")); err != nil {
		t.Fatal(err)
	}

	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	cli.Reset(cliEnd)
	var live []uint64
	for i := 0; i < 3; i++ {
		h, _, err := cli.Create(fmt.Sprintf("new%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(h, 0, []byte("new")); err != nil {
			t.Fatal(err)
		}
		live = append(live, h)
	}
	if _, err := cli.Read(stale, 0, 4); !errors.Is(err, fsrpc.ErrBadHandle) {
		t.Fatalf("READ through a handle of the last session = %v, want EBADF", err)
	}
	if _, err := cli.Write(stale, 0, []byte("XXXX")); !errors.Is(err, fsrpc.ErrBadHandle) {
		t.Fatalf("WRITE through a handle of the last session = %v, want EBADF", err)
	}
	for i, h := range live {
		if got, err := cli.Read(h, 0, 8); err != nil || string(got) != "new" {
			t.Fatalf("new%d after the stale WRITE = %q, %v; want \"new\"", i, got, err)
		}
	}
	h, _, err := cli.Lookup("old", true)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := cli.Read(h, 0, 8); err != nil || string(got) != "old" {
		t.Fatalf("old after the stale WRITE = %q, %v; want \"old\"", got, err)
	}
}

// TestClosePoisonsClient checks that Close is terminal in the same typed
// way: calls after Close report ErrPoisoned, and the caller can tell
// "closed" from a live client without string matching.
func TestClosePoisonsClient(t *testing.T) {
	in := bench.Build("betrfs-v0.6", 256)
	srv := fsserve.New(in.Env, in.Mount, fsserve.DefaultConfig())
	defer srv.Shutdown()

	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	cli := fsrpc.NewClient(cliEnd)
	if err := cli.Mkdir("d"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := cli.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := cli.Mkdir("d2"); !errors.Is(err, fsrpc.ErrPoisoned) {
		t.Fatalf("call after Close = %v, want ErrPoisoned", err)
	}
}
