package faulttest

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"betrfs/internal/blockdev"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/systems"
	"betrfs/internal/vfs"
)

// dialServe connects one fsrpc client to srv over an in-process pipe.
func dialServe(t *testing.T, srv *fsserve.Server) *fsrpc.Client {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	go srv.ServeConn(srvEnd)
	cli := fsrpc.NewClient(cliEnd)
	t.Cleanup(func() { cli.Close() })
	return cli
}

// wireErrOK reports whether err is inside the error contract for a
// client racing a dying device: success, an errno-class failure, or an
// admission shed. Anything else (a panic would not even get here, a
// proto error, a garbled class) breaks the contract.
func wireErrOK(err error) bool {
	return err == nil ||
		errors.Is(err, vfs.ErrIO) ||
		errors.Is(err, vfs.ErrReadOnly) ||
		errors.Is(err, vfs.ErrNoSpace) ||
		errors.Is(err, vfs.ErrExist) ||
		errors.Is(err, fsrpc.ErrBusy) ||
		errors.Is(err, fsrpc.ErrBadHandle)
}

// TestServerWriteDeathUnderConcurrentClients kills the write path while
// several wire clients hammer a concurrently-configured mount through
// the fsserve server. The end-to-end contract must hold under goroutine
// interleaving exactly as it does single-threaded: every client sees
// errno-class errors only, the mount latches read-only (sticky across
// all sessions), new writes from a fresh session get EROFS over the
// wire, and reads keep serving correct pre-fault bytes. Run under
// -race this also checks the server/mount locking protocol itself.
func TestServerWriteDeathUnderConcurrentClients(t *testing.T) {
	const (
		clients   = 4
		opsPerCli = 30
		keepSize  = 8192
	)
	for _, name := range systems.Core {
		t.Run(name, func(t *testing.T) {
			sys, err := BuildConcurrent(name, 3, DefaultScale, blockdev.FaultPlan{Seed: 7}, blockdev.DefaultRetryPolicy(), 2)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fsserve.DefaultConfig()
			cfg.Workers = 4
			srv := fsserve.New(sys.Env, sys.Mount, cfg)
			defer srv.Shutdown()

			// Pre-fault state through the wire: one durable file whose
			// bytes must survive the write death.
			pre := dialServe(t, srv)
			if err := pre.Mkdir("pre"); err != nil {
				t.Fatalf("pre mkdir: %v", err)
			}
			h, _, err := pre.Create("pre/keep")
			if err != nil {
				t.Fatalf("pre create: %v", err)
			}
			if _, err := pre.Write(h, 0, content(7, keepSize)); err != nil {
				t.Fatalf("pre write: %v", err)
			}
			if err := pre.Fsync(h); err != nil {
				t.Fatalf("pre fsync: %v", err)
			}

			sys.Fault.FailWritesNow()

			var wg sync.WaitGroup
			badErr := make([]error, clients)
			for c := 0; c < clients; c++ {
				cli := dialServe(t, srv)
				wg.Add(1)
				go func(c int, cli *fsrpc.Client) {
					defer wg.Done()
					if c == 0 {
						// One client starts only once the latch has tripped,
						// so a refused Mkdir happens on every run and not
						// just when the scheduler arranges it.
						for end := time.Now().Add(10 * time.Second); sys.Mount.Degraded() == nil && time.Now().Before(end); {
							time.Sleep(time.Millisecond)
						}
					}
					mkdirErr := cli.Mkdir(fmt.Sprintf("c%d", c))
					if !wireErrOK(mkdirErr) {
						badErr[c] = fmt.Errorf("mkdir: %w", mkdirErr)
						return
					}
					for i := 0; i < opsPerCli; i++ {
						path := fmt.Sprintf("c%d/f%02d", c, i)
						fh, _, err := cli.Create(path)
						// ENOENT is inside the contract iff this client's
						// directory was never made.
						if !wireErrOK(err) && !(mkdirErr != nil && errors.Is(err, vfs.ErrNotExist)) {
							badErr[c] = fmt.Errorf("create %s: %w", path, err)
							return
						}
						if err != nil {
							continue
						}
						if _, err := cli.Write(fh, 0, content(i, 2048)); !wireErrOK(err) {
							badErr[c] = fmt.Errorf("write %s: %w", path, err)
							return
						}
						if err := cli.Fsync(fh); !wireErrOK(err) {
							badErr[c] = fmt.Errorf("fsync %s: %w", path, err)
							return
						}
					}
				}(c, cli)
			}
			wg.Wait()
			for c, err := range badErr {
				if err != nil {
					t.Fatalf("client %d broke the error contract: %v", c, err)
				}
			}

			// The storm of failed writebacks must have tripped the sticky
			// errors=remount-ro latch.
			if sys.Mount.Degraded() == nil {
				t.Fatal("mount did not degrade read-only under server write death")
			}
			if got := sys.Counter("vfs.remount.ro"); got < 1 {
				t.Fatalf("vfs.remount.ro = %d, want >= 1", got)
			}

			// A fresh session sees the latch: EROFS over the wire, not EIO
			// and not success.
			post := dialServe(t, srv)
			if _, _, err := post.Create("post-death"); !errors.Is(err, vfs.ErrReadOnly) {
				t.Fatalf("create on degraded mount over wire = %v, want EROFS", err)
			}
			if err := post.Mkdir("post-dir"); !errors.Is(err, vfs.ErrReadOnly) {
				t.Fatalf("mkdir on degraded mount over wire = %v, want EROFS", err)
			}

			// Reads keep serving correct pre-fault data through the wire.
			rh, attr, err := post.Lookup("pre/keep", true)
			if err != nil {
				t.Fatalf("lookup pre/keep after degradation: %v", err)
			}
			if attr.Size != keepSize {
				t.Fatalf("pre/keep size = %d, want %d", attr.Size, keepSize)
			}
			got, err := post.Read(rh, 0, keepSize)
			if err != nil {
				t.Fatalf("read pre/keep after degradation: %v", err)
			}
			if !bytes.Equal(got, content(7, keepSize)) {
				t.Fatal("pre-fault bytes corrupted when read through degraded server")
			}
		})
	}
}
