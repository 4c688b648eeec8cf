package fsserve_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"betrfs/internal/bench"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/vfs"
)

// pipelinedServer builds a 4-worker server over a concurrent mount — the
// configuration where requests genuinely overlap and the §13.5 ordering
// chains are load-bearing.
func pipelinedServer(t *testing.T) (*bench.Instance, *fsserve.Server) {
	t.Helper()
	in := bench.BuildConcurrent("betrfs-v0.6", 256, 4)
	cfg := fsserve.DefaultConfig()
	cfg.Workers = 4
	cfg.QueueDepth = 256
	srv := fsserve.New(in.Env, in.Mount, cfg)
	t.Cleanup(srv.Shutdown)
	return in, srv
}

// TestPipelinedWritesApplyInIssueOrder pipelines many same-handle WRITEs
// to overlapping offsets through a multi-worker server without waiting
// for replies. §13.5 requires same-handle mutations to apply in issue
// order, so the final byte at each offset must be the last write issued
// there — any reordering leaves an earlier generation visible.
func TestPipelinedWritesApplyInIssueOrder(t *testing.T) {
	_, srv := pipelinedServer(t)
	cli := dial(t, srv)

	h, _, err := cli.Create("f")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	// Generations of full-file writes: each pass overwrites the same 512
	// bytes with a new fill value. Issue all of them async, back to back.
	const gens, size = 24, 512
	var calls []*fsrpc.Call
	for g := 0; g < gens; g++ {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(g + 1)
		}
		calls = append(calls, cli.Go(context.Background(),
			&fsrpc.Request{Op: fsrpc.OpWrite, Handle: h, Off: 0, Data: data}))
	}
	// One FSYNC rides the same chain, so it must run after every write.
	calls = append(calls, cli.Go(context.Background(),
		&fsrpc.Request{Op: fsrpc.OpFsync, Handle: h}))
	for i, c := range calls {
		<-c.Done()
		if c.Err != nil {
			t.Fatalf("pipelined call %d: %v", i, c.Err)
		}
	}
	got, err := cli.Read(h, 0, size)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(got) != size {
		t.Fatalf("read back %d bytes, want %d", len(got), size)
	}
	for i, b := range got {
		if b != byte(gens) {
			t.Fatalf("byte %d = %d, want %d (last write lost to reordering)", i, b, gens)
		}
	}
}

// TestPipelinedNamespaceOrder pipelines dependent directory mutations —
// mkdir parent, create children inside it, rename, unlink — without
// waiting for replies. The per-directory chains must execute them in
// issue order: every call succeeds, and the final namespace matches the
// sequential result.
func TestPipelinedNamespaceOrder(t *testing.T) {
	_, srv := pipelinedServer(t)
	cli := dial(t, srv)

	var calls []*fsrpc.Call
	issue := func(q *fsrpc.Request) {
		calls = append(calls, cli.Go(context.Background(), q))
	}
	issue(&fsrpc.Request{Op: fsrpc.OpMkdir, Path: "d"})
	for i := 0; i < 8; i++ {
		issue(&fsrpc.Request{Op: fsrpc.OpCreate, Path: fmt.Sprintf("d/f%d", i)})
	}
	issue(&fsrpc.Request{Op: fsrpc.OpRename, Path: "d/f0", Path2: "d/renamed"})
	issue(&fsrpc.Request{Op: fsrpc.OpUnlink, Path: "d/f1"})
	for i, c := range calls {
		<-c.Done()
		if c.Err != nil {
			t.Fatalf("pipelined namespace call %d (%s %q): %v", i, c.Req.Op, c.Req.Path, c.Err)
		}
	}
	ents, err := cli.Readdir("d")
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	names := map[string]bool{}
	for _, e := range ents {
		names[e.Name] = true
	}
	if names["f0"] || names["f1"] || !names["renamed"] || len(ents) != 7 {
		t.Fatalf("namespace after pipelined mutations = %v, want f2..f7 + renamed", names)
	}
}

// TestPipelinedConcurrentSessions hammers one multi-worker server from
// several pipelined sessions at once (run under -race in CI): every call
// must complete without error and the per-session op accounting must
// reconcile. This is the concurrency smoke for the whole serve path —
// chains, direct reads, batched writer, zero-copy frames.
func TestPipelinedConcurrentSessions(t *testing.T) {
	in, srv := pipelinedServer(t)

	const sessions, files = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		cli := dial(t, srv)
		wg.Add(1)
		go func(s int, cli *fsrpc.Client) {
			defer wg.Done()
			dir := fmt.Sprintf("s%d", s)
			if err := cli.Mkdir(dir); err != nil {
				errs <- err
				return
			}
			payload := []byte("pipelined payload")
			for i := 0; i < files; i++ {
				path := fmt.Sprintf("%s/f%d", dir, i)
				h, _, err := cli.Create(path)
				if err != nil {
					errs <- fmt.Errorf("create %s: %w", path, err)
					return
				}
				if _, err := cli.Write(h, 0, payload); err != nil {
					errs <- fmt.Errorf("write %s: %w", path, err)
					return
				}
				got, err := cli.Read(h, 0, len(payload))
				if err != nil || len(got) != len(payload) {
					errs <- fmt.Errorf("read %s: %v (%d bytes)", path, err, len(got))
					return
				}
			}
			if _, err := cli.Statfs(); err != nil {
				errs <- err
			}
		}(s, cli)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent session failed: %v", err)
	}
	if got := in.Env.Metrics.Counter("fsserve.op.count").Load(); got < sessions*(1+3*files+1) {
		t.Fatalf("fsserve.op.count = %d, want >= %d", got, sessions*(1+3*files+1))
	}
	if in.Env.Metrics.Counter("fsserve.zerocopy.bytes").Load() == 0 {
		t.Fatal("zero-copy READ framing never engaged")
	}
}

// TestPipelinedMkdirOrdersChildCreate forces the interleaving that made
// TestPipelinedNamespaceOrder flaky: MKDIR d is parked inside execute while
// the pipelined CREATE d/f0 behind it is free to be picked up by another
// worker. MKDIR joins d's own chain (§13.5), so the CREATE must not reach
// execute until the MKDIR's turn is over. If it does, the parked MKDIR
// sees it and the test fails without waiting; otherwise the MKDIR gives it
// a grace period in which a wrongly unordered CREATE would have arrived.
func TestPipelinedMkdirOrdersChildCreate(t *testing.T) {
	in := bench.BuildConcurrent("betrfs-v0.6", 256, 4)
	cfg := fsserve.DefaultConfig()
	cfg.Workers = 4
	createRan := make(chan struct{})
	var overtook atomic.Bool
	cfg.OnExecute = func(op fsrpc.Op) {
		switch op {
		case fsrpc.OpMkdir:
			select {
			case <-createRan:
				overtook.Store(true)
			case <-time.After(200 * time.Millisecond):
			}
		case fsrpc.OpCreate:
			close(createRan)
		}
	}
	srv := fsserve.New(in.Env, in.Mount, cfg)
	t.Cleanup(srv.Shutdown)
	cli := dial(t, srv)

	mk := cli.Go(context.Background(), &fsrpc.Request{Op: fsrpc.OpMkdir, Path: "d"})
	cr := cli.Go(context.Background(), &fsrpc.Request{Op: fsrpc.OpCreate, Path: "d/f0"})
	<-mk.Done()
	<-cr.Done()
	if overtook.Load() {
		t.Error("CREATE d/f0 reached execute while MKDIR d was still executing")
	}
	if mk.Err != nil || cr.Err != nil {
		t.Fatalf("mkdir d: %v; create d/f0: %v", mk.Err, cr.Err)
	}
}

// TestParkedHookHoldsNoSlot parks a MKDIR in OnExecute at GOMAXPROCS=1,
// where the execution gate has one slot, and checks that a GETATTR on the
// same connection still replies: the hook runs before the gate, so a
// parked hook cannot starve the reads the session reader executes.
func TestParkedHookHoldsNoSlot(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	in := bench.BuildConcurrent("betrfs-v0.6", 256, 2)
	cfg := fsserve.DefaultConfig()
	cfg.Workers = 2
	gate := make(chan struct{})
	parked := make(chan struct{}, 1)
	cfg.OnExecute = func(op fsrpc.Op) {
		if op == fsrpc.OpMkdir {
			parked <- struct{}{}
			<-gate
		}
	}
	srv := fsserve.New(in.Env, in.Mount, cfg)
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	// LIFO cleanup order: unpark the MKDIR before Shutdown drains it.
	t.Cleanup(srv.Shutdown)
	t.Cleanup(release)
	cli := dial(t, srv)

	mk := cli.Go(context.Background(), &fsrpc.Request{Op: fsrpc.OpMkdir, Path: "d"})
	<-parked
	got := make(chan error, 1)
	go func() {
		_, err := cli.Getattr("d")
		got <- err
	}()
	select {
	case err := <-got:
		if !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("getattr d while MKDIR d is parked = %v, want ENOENT", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: the parked MKDIR holds the only execution slot")
	}
	release()
	if <-mk.Done(); mk.Err != nil {
		t.Fatalf("mkdir d: %v", mk.Err)
	}
}
