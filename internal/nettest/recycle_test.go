package nettest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"betrfs/internal/bench"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/metrics"
)

// The synchronous client methods run on recycled calls (DESIGN.md §11.1,
// §13.6).
// A call goes back to the pool once it is delivered; one that went back
// while the pending table, the replay set or the orphan table could still
// reach it would be written by two requests at once, which the race
// detector reports, or would hand one caller another's reply, which the
// identity checks below catch. A call delivered twice panics in the client.
// make netfaults runs these at -cpu 1,2,8.

// recycleFiles and recycleDirs size the namespace the callers check
// against: file i holds fileData(i), directory j lists j+1 files.
const (
	recycleFiles   = 8
	recycleDirs    = 4
	recycleCallers = 4
)

func fileData(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 100*i+1) }

// recycleServer builds a concurrent server over the namespace.
func recycleServer(t *testing.T, mutate func(*fsserve.Config)) (*bench.Instance, *fsserve.Server) {
	t.Helper()
	in := bench.BuildConcurrent("betrfs-v0.6", 256, 2)
	for i := 0; i < recycleFiles; i++ {
		f, err := in.Mount.Create(fmt.Sprintf("f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(fileData(i)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	for j := 0; j < recycleDirs; j++ {
		if err := in.Mount.Mkdir(fmt.Sprintf("d%d", j)); err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= j; k++ {
			f, err := in.Mount.Create(fmt.Sprintf("d%d/e%d", j, k))
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
	}
	cfg := fsserve.DefaultConfig()
	cfg.Workers = 2
	cfg.QueueDepth = 1024
	cfg.SessionLease = time.Hour
	if mutate != nil {
		mutate(&cfg)
	}
	srv := fsserve.New(in.Env, in.Mount, cfg)
	t.Cleanup(srv.Shutdown)
	return in, srv
}

// hammer runs recycleCallers goroutines of iters rounds of GETATTR, LOOKUP
// with open, READ and READDIR on cli, each checked against the namespace.
// tolerate says which errors the scenario allows; it returns how many
// calls succeeded. Every successful READ must return its own file's bytes,
// also when its LOOKUP ran on an earlier session: handle numbers are
// server-wide, so such a handle names no file.
func hammer(t *testing.T, cli *fsrpc.Client, iters int, tolerate func(error) bool) int {
	t.Helper()
	var (
		mu   sync.Mutex
		good int
		bad  error
	)
	check := func(err error, what string, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil && ok:
			good++
		case err == nil:
			if bad == nil {
				bad = fmt.Errorf("%s: another call's reply", what)
			}
		case !tolerate(err) && bad == nil:
			bad = fmt.Errorf("%s: %w", what, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < recycleCallers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				i, j := (g+n)%recycleFiles, (g+n)%recycleDirs
				want := fileData(i)
				a, err := cli.Getattr(fmt.Sprintf("f%d", i))
				check(err, "getattr", a.Size == int64(len(want)))
				h, a, err := cli.Lookup(fmt.Sprintf("f%d", i), true)
				check(err, "lookup", a.Size == int64(len(want)))
				if err == nil {
					data, err := cli.Read(h, 0, 4096)
					check(err, "read", bytes.Equal(data, want))
				}
				ents, err := cli.Readdir(fmt.Sprintf("d%d", j))
				ok := len(ents) == j+1
				for k, e := range ents {
					ok = ok && e.Name == fmt.Sprintf("e%d", k)
				}
				check(err, "readdir", ok)
			}
		}(g)
	}
	wg.Wait()
	if bad != nil {
		t.Fatal(bad)
	}
	return good
}

// TestRecycledCallsAcrossRedialReplay: every connection is cut after a
// seeded number of bytes, mid-frame, and the client redials and replays
// what was in flight. Every call completes, with its own reply.
func TestRecycledCallsAcrossRedialReplay(t *testing.T) {
	_, srv := recycleServer(t, nil)
	plan := NewPlan(7, 4<<10, 24<<10, -1)
	dial := func() (io.ReadWriteCloser, error) {
		cliEnd, srvEnd := net.Pipe()
		go srv.ServeConn(srvEnd)
		return plan.Wrap(cliEnd), nil
	}
	reg := metrics.NewRegistry()
	conn, _ := dial()
	cli := fsrpc.NewClientOpts(conn, fsrpc.Options{Window: 8, Metrics: reg})
	defer cli.Close()
	if err := cli.EnableRedial(dial, fsrpc.RedialPolicy{Sleep: func(time.Duration) {}}); err != nil {
		t.Fatalf("enable redial: %v", err)
	}
	hammer(t, cli, 40, func(error) bool { return false })
	if n := reg.Counter("fsrpc.replay.call").Load(); n == 0 {
		t.Errorf("%d connections cut, but no call was replayed", plan.Conns()-1)
	}
}

// TestRecycledCallsAcrossPoisonAndReset: the transport is closed under the
// callers again and again, poisoning the client, and Reset installs a new
// one. Calls in flight fail with ErrPoisoned; the rest get their own
// replies.
func TestRecycledCallsAcrossPoisonAndReset(t *testing.T) {
	_, srv := recycleServer(t, nil)
	dial := func() net.Conn {
		cliEnd, srvEnd := net.Pipe()
		go srv.ServeConn(srvEnd)
		return cliEnd
	}
	conn := dial()
	cli := fsrpc.NewClientOpts(conn, fsrpc.Options{Window: 8})
	defer cli.Close()
	var resets atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			conn.Close()
			conn = dial()
			cli.Reset(conn)
			resets.Add(1)
		}
	}()
	good := hammer(t, cli, 60, func(err error) bool {
		// A handle opened before a Reset names nothing on the new session.
		return errors.Is(err, fsrpc.ErrPoisoned) || errors.Is(err, fsrpc.ErrBadHandle)
	})
	close(stop)
	<-done
	if n := resets.Load(); n == 0 || good == 0 {
		t.Errorf("%d resets, %d good calls: the scenario did not run", n, good)
	}
}

// TestRecycledCallsAcrossCallTimeout: the server sleeps on some calls past
// the client's CallTimeout, so those are abandoned to the orphan table and
// their late replies discarded, while the others complete.
func TestRecycledCallsAcrossCallTimeout(t *testing.T) {
	var mu sync.Mutex
	n := 0
	_, srv := recycleServer(t, func(cfg *fsserve.Config) {
		cfg.OnExecute = func(fsrpc.Op) {
			mu.Lock()
			n++
			slow := n%5 == 0
			mu.Unlock()
			if slow {
				time.Sleep(3 * time.Millisecond)
			}
		}
	})
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	reg := metrics.NewRegistry()
	cli := fsrpc.NewClientOpts(cliEnd, fsrpc.Options{Window: 8, Metrics: reg, CallTimeout: time.Millisecond})
	defer cli.Close()
	good := hammer(t, cli, 30, func(err error) bool {
		return errors.Is(err, context.DeadlineExceeded)
	})
	if expired := reg.Counter("fsrpc.deadline.expired").Load(); expired == 0 || good == 0 {
		t.Errorf("%d calls expired, %d good: the scenario did not run", expired, good)
	}
}
