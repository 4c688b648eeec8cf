package fsserve_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"betrfs/internal/bench"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/vfs"
)

// parkableServer builds a server whose single worker parks inside
// execute on every MKDIR until gate is closed, signalling on parked once
// it is stuck. Every other op passes straight through. The tests park and
// queue mutations because only mutations go through the admission queue;
// read-class ops run on the session reader.
func parkableServer(t *testing.T, cfg fsserve.Config) (in *bench.Instance, srv *fsserve.Server, release func(), parked chan struct{}) {
	t.Helper()
	in = bench.BuildConcurrent("ext4", 256, 1)
	gate := make(chan struct{})
	parked = make(chan struct{}, 4)
	cfg.OnExecute = func(op fsrpc.Op) {
		if op == fsrpc.OpMkdir {
			parked <- struct{}{}
			<-gate
		}
	}
	srv = fsserve.New(in.Env, in.Mount, cfg)
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	// LIFO cleanup order: unpark the worker before Shutdown drains, so a
	// mid-test failure cannot wedge the drain barrier forever.
	t.Cleanup(srv.Shutdown)
	t.Cleanup(release)
	return in, srv, release, parked
}

// missing names a file in directory i, which no test creates: an UNLINK
// of it is a mutation that queues on its own directory chain and fails
// ENOENT once executed.
func missing(i int) string { return fmt.Sprintf("d%d/f", i) }

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSaturationShedsEBUSY parks the only worker, fills the admission
// queue, and checks that further requests are shed immediately with
// EBUSY instead of blocking the connection reader — and that once the
// worker resumes, every admitted request still completes. The test
// finishing at all is the no-deadlock assertion.
func TestSaturationShedsEBUSY(t *testing.T) {
	cfg := fsserve.DefaultConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 2
	in, srv, release, parked := parkableServer(t, cfg)

	parkCli := dial(t, srv)
	mkdirErr := make(chan error, 1)
	go func() { mkdirErr <- parkCli.Mkdir("parked") }()
	<-parked

	// Two requests fit the queue while the worker is stuck.
	queued := make(chan error, 2)
	for i := 0; i < 2; i++ {
		cli := dial(t, srv)
		go func() { queued <- cli.Unlink(missing(i)) }()
	}
	depth := in.Env.Metrics.Gauge("fsserve.queue.depth")
	waitCond(t, "queue to fill", func() bool { return depth.Load() == 2 })

	// The third is shed synchronously with EBUSY.
	shedCli := dial(t, srv)
	if err := shedCli.Unlink(missing(2)); !errors.Is(err, fsrpc.ErrBusy) {
		t.Fatalf("request on full queue = %v, want EBUSY", err)
	}
	if got := in.Env.Metrics.Counter("fsserve.queue.shed").Load(); got < 1 {
		t.Fatalf("fsserve.queue.shed = %d, want >= 1", got)
	}

	// Release the worker: the parked op and both queued ops complete.
	release()
	if err := <-mkdirErr; err != nil {
		t.Fatalf("parked mkdir: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-queued; !errors.Is(err, vfs.ErrNotExist) {
			t.Fatalf("queued unlink after release = %v, want ENOENT", err)
		}
	}
}

// TestQueueWaitShedsStaleRequests parks the worker long enough that
// queued requests outlive Config.QueueWait, then checks they are shed at
// dequeue with EBUSY and counted, rather than executed late.
func TestQueueWaitShedsStaleRequests(t *testing.T) {
	cfg := fsserve.DefaultConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 8
	cfg.QueueWait = time.Millisecond
	in, srv, release, parked := parkableServer(t, cfg)

	parkCli := dial(t, srv)
	mkdirErr := make(chan error, 1)
	var mkdirShed atomic.Int64
	go func() {
		for {
			// On a host slower than QueueWait the MKDIR itself can wait
			// past it before the worker dequeues it; it is then shed
			// unexecuted and never parks. Send it again.
			err := parkCli.Mkdir("parked")
			if !errors.Is(err, fsrpc.ErrBusy) {
				mkdirErr <- err
				return
			}
			mkdirShed.Add(1)
		}
	}()
	<-parked

	const stale = 3
	queued := make(chan error, stale)
	for i := 0; i < stale; i++ {
		cli := dial(t, srv)
		go func() { queued <- cli.Unlink(missing(i)) }()
	}
	depth := in.Env.Metrics.Gauge("fsserve.queue.depth")
	waitCond(t, "queue to fill", func() bool { return depth.Load() == stale })
	time.Sleep(20 * time.Millisecond) // let every queued request expire
	release()

	if err := <-mkdirErr; err != nil {
		t.Fatalf("parked mkdir: %v", err)
	}
	for i := 0; i < stale; i++ {
		if err := <-queued; !errors.Is(err, fsrpc.ErrBusy) {
			t.Fatalf("stale queued request = %v, want EBUSY", err)
		}
	}
	if got, want := in.Env.Metrics.Counter("fsserve.deadline.shed").Load(), stale+mkdirShed.Load(); got != want {
		t.Fatalf("fsserve.deadline.shed = %d, want %d", got, want)
	}
}

// TestGracefulDrain checks Shutdown's contract: in-flight requests run
// to completion and their replies are delivered, requests arriving while
// draining get ESHUTDOWN, and Shutdown itself returns only once the
// workers have stopped.
func TestGracefulDrain(t *testing.T) {
	cfg := fsserve.DefaultConfig()
	cfg.Workers = 1
	in, srv, release, parked := parkableServer(t, cfg)

	parkCli := dial(t, srv)
	mkdirErr := make(chan error, 1)
	go func() { mkdirErr <- parkCli.Mkdir("parked") }()
	<-parked

	lateCli := dial(t, srv) // connected before the drain begins
	// dial returns before ServeConn registers the session; wait for the
	// registration so Shutdown cannot refuse lateCli as a brand-new
	// connection instead of draining it.
	sessions := in.Env.Metrics.Gauge("fsserve.session.open")
	waitCond(t, "lateCli registration", func() bool { return sessions.Load() == 2 })
	done := make(chan struct{})
	go func() {
		srv.Shutdown()
		close(done)
	}()

	// Wait for the drain state flip (visible via the counter) before
	// probing: a request sent while still serving would be admitted
	// behind the parked worker and block this test forever.
	drainCtr := in.Env.Metrics.Counter("fsserve.drain.count")
	waitCond(t, "drain to start", func() bool { return drainCtr.Load() == 1 })

	// While draining, new requests on existing connections get ESHUTDOWN.
	if err := lateCli.Mkdir("late"); !errors.Is(err, fsrpc.ErrShutdown) {
		t.Fatalf("request while draining = %v, want ESHUTDOWN", err)
	}
	select {
	case <-done:
		t.Fatal("Shutdown returned while a request was still in flight")
	default:
	}

	// Releasing the worker lets the in-flight reply out and the drain end.
	release()
	if err := <-mkdirErr; err != nil {
		t.Fatalf("in-flight mkdir reply lost during drain: %v", err)
	}
	<-done
	if got := in.Env.Metrics.Counter("fsserve.drain.count").Load(); got != 1 {
		t.Fatalf("fsserve.drain.count = %d, want 1", got)
	}

	// A connection arriving after shutdown is refused outright.
	refused := dial(t, srv)
	if _, err := refused.Getattr("x"); err == nil {
		t.Fatal("request on post-shutdown connection succeeded")
	}
}
