package nettest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"betrfs/internal/bench"
	"betrfs/internal/crashtest"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/metrics"
)

// wireTarget runs crashtest programs through an fsrpc client. It keeps one
// handle per path, from the first write's CREATE on, and moves it with
// the file on a rename. A run of writes to one path is pipelined: a cut
// can strand the whole window, and the per-handle WRITE chain keeps it in
// issue order.
type wireTarget struct {
	cli     *fsrpc.Client
	handles map[string]uint64
}

func newWireTarget(cli *fsrpc.Client) *wireTarget {
	return &wireTarget{cli: cli, handles: make(map[string]uint64)}
}

func (w *wireTarget) handle(path string, create bool) (uint64, error) {
	if h, ok := w.handles[path]; ok {
		return h, nil
	}
	var h uint64
	var err error
	if create {
		h, _, err = w.cli.Create(path)
	} else {
		h, _, err = w.cli.Lookup(path, true)
	}
	if err == nil {
		w.handles[path] = h
	}
	return h, err
}

func (w *wireTarget) Write(run []crashtest.Step) error {
	h, err := w.handle(run[0].Path, true)
	if err != nil {
		return err
	}
	calls := make([]*fsrpc.Call, len(run))
	for i, s := range run {
		calls[i] = w.cli.Go(context.Background(), &fsrpc.Request{Op: fsrpc.OpWrite, Handle: h, Off: s.Off, Data: s.Data})
	}
	for i, call := range calls {
		<-call.Done()
		if call.Err == nil && int(call.Reply.N) != len(run[i].Data) {
			call.Err = fmt.Errorf("short write: %d of %d", call.Reply.N, len(run[i].Data))
		}
		err = errors.Join(err, call.Err)
	}
	return err
}

func (w *wireTarget) Fsync(path string) error {
	h, err := w.handle(path, false)
	if err != nil {
		return err
	}
	return w.cli.Fsync(h)
}

func (w *wireTarget) Read(path string, n int) ([]byte, error) {
	h, err := w.handle(path, false)
	if err != nil {
		return nil, err
	}
	return w.cli.Read(h, 0, n)
}

func (w *wireTarget) Rename(from, to string) error {
	err := w.cli.Rename(from, to)
	if h, ok := w.handles[from]; ok && err == nil {
		delete(w.handles, from)
		w.handles[to] = h
	}
	return err
}

func (w *wireTarget) Remove(path string) error {
	delete(w.handles, path)
	return w.cli.Unlink(path)
}

func (w *wireTarget) Mkdir(path string) error { return w.cli.Mkdir(path) }
func (w *wireTarget) Sync() error             { return errors.New("nettest: the wire has no SYNC") }

// chunkData is the deterministic payload for client ci, file j, chunk k.
func chunkData(ci, j, k, n int) []byte {
	return bytes.Repeat([]byte{byte(ci*31 + j*7 + k + 1)}, n)
}

// script is client ci's program, all in c<ci>/: a directory tree, files
// written in one to three chunks, fsyncs, read-backs, renames, unlinks,
// and a burst of eight writes to one file, which the client pipelines.
// The program depends only on ci, never on the fault schedule.
func script(ci int) []crashtest.Step {
	base := fmt.Sprintf("c%d", ci)
	steps := []crashtest.Step{{Op: crashtest.OpMkdir, Path: base}}
	rng := rand.New(rand.NewSource(int64(1000 + ci)))
	var live []string
	for j := 0; j < 40; j++ {
		dir := fmt.Sprintf("%s/d%d", base, j%4)
		if j < 4 {
			steps = append(steps, crashtest.Step{Op: crashtest.OpMkdir, Path: dir})
		}
		p := fmt.Sprintf("%s/f%03d", dir, j)
		for k, chunks := 0, 1+rng.Intn(3); k < chunks; k++ {
			steps = append(steps, crashtest.Step{Op: crashtest.OpWrite, Path: p, Off: int64(k) * 4096, Data: chunkData(ci, j, k, 1024+rng.Intn(3072))})
		}
		if j%5 == 0 {
			steps = append(steps, crashtest.Step{Op: crashtest.OpFsync, Path: p})
		}
		if j%4 == 0 {
			steps = append(steps, crashtest.Step{Op: crashtest.OpRead, Path: p})
		}
		if j%3 == 0 {
			steps = append(steps, crashtest.Step{Op: crashtest.OpRename, Path: p, To: p + ".r"})
			p += ".r"
		}
		live = append(live, p)
		if j%7 == 0 && len(live) > 3 {
			steps = append(steps, crashtest.Step{Op: crashtest.OpRemove, Path: live[0]})
			live = live[1:]
		}
	}
	// Pipelined burst: several writes in flight at once, so a cut can
	// strand a whole window of fate-unknown mutations for replay.
	bp := base + "/burst"
	for k := 0; k < 8; k++ {
		steps = append(steps, crashtest.Step{Op: crashtest.OpWrite, Path: bp, Off: int64(k) * 2048, Data: chunkData(ci, 999, k, 2048)})
	}
	return append(steps, crashtest.Step{Op: crashtest.OpFsync, Path: bp})
}

// replyLossConn is the server-side fault for the deterministic epilogue:
// while armed, the next reply write is swallowed and the connection
// closed — the mutation executed and its reply is cached, but the client
// never hears. The canonical duplicate-reply-cache window.
type replyLossConn struct {
	net.Conn
	armed *atomic.Bool
}

func (c *replyLossConn) Write(p []byte) (int, error) {
	if c.armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, io.ErrClosedPipe
	}
	return c.Conn.Write(p)
}

// epiData is the payload of the per-client reply-loss epilogue write.
func epiData(ci int) []byte { return chunkData(ci, 998, 0, 1024) }

// tortureServer builds the concurrent system under test.
func tortureServer() (*bench.Instance, *fsserve.Server) {
	in := bench.BuildConcurrent("betrfs-v0.6", 256, 2)
	cfg := fsserve.DefaultConfig()
	cfg.Workers = 2
	cfg.QueueDepth = 1024        // no shedding: every acknowledged op must land
	cfg.SessionLease = time.Hour // long: the sweep tests cuts, not expiry
	srv := fsserve.New(in.Env, in.Mount, cfg)
	return in, srv
}

// runSweep runs one seeded torture round: nClients clients in disjoint
// directories, every connection cut by the plan, and the served mount
// checked against the model of the programs, byte for byte. It returns
// the server's duplicate-reply-cache hit count for cross-seed aggregation.
func runSweep(t *testing.T, seed int64, nClients int) int64 {
	t.Helper()
	in, srv := tortureServer()
	defer srv.Shutdown()

	type clientRig struct {
		cli    *fsrpc.Client
		target *wireTarget
		reg    *metrics.Registry
		plan   *Plan
		drop   atomic.Bool
	}
	rigs := make([]*clientRig, nClients)
	for ci := 0; ci < nClients; ci++ {
		rig := &clientRig{
			reg: metrics.NewRegistry(),
			// Budgets far below the script's traffic, far above the
			// resume handshake: several cuts per client, guaranteed
			// progress between cuts.
			plan: NewPlan(seed*100+int64(ci), 4<<10, 48<<10, -1),
		}
		dial := func() (io.ReadWriteCloser, error) {
			cliEnd, srvEnd := net.Pipe()
			go srv.ServeConn(&replyLossConn{Conn: srvEnd, armed: &rig.drop})
			return rig.plan.Wrap(cliEnd), nil
		}
		conn, _ := dial()
		rig.cli = fsrpc.NewClientOpts(conn, fsrpc.Options{Window: 8, Metrics: rig.reg})
		if err := rig.cli.EnableRedial(dial, fsrpc.RedialPolicy{
			BaseDelay: time.Millisecond,
			MaxDelay:  4 * time.Millisecond,
			Sleep:     func(time.Duration) {}, // zero wall time; schedule is deterministic anyway
		}); err != nil {
			t.Fatalf("client %d: enable redial: %v", ci, err)
		}
		rig.target = newWireTarget(rig.cli)
		rigs[ci] = rig
	}

	mo := crashtest.NewModel()
	var wg sync.WaitGroup
	errs := make([]error, nClients)
	for ci := range rigs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			errs[ci] = mo.Run(rigs[ci].target, script(ci))
		}(ci)
	}
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			t.Fatalf("seed %d client %d: %v", seed, ci, err)
		}
	}
	// Deterministic reply-loss epilogue: the seeded cuts above land
	// wherever the byte budgets say, which may never split an executed
	// mutation from its reply. Force that exact window once per client —
	// cut onto a fault-free connection, write c<ci>/epi, then swallow the
	// reply to its RENAME server-side — so the sweep always exercises a
	// DRC hit: the replayed RENAME must be answered from cache, since a
	// second execution fails ENOENT.
	preHits := in.Env.Metrics.Counter("fsserve.drc.hit").Load()
	for ci, rig := range rigs {
		rig.plan.Calm()
		rig.plan.CutLive()
		epi := fmt.Sprintf("c%d/epi", ci)
		if err := mo.Run(rig.target, []crashtest.Step{{Op: crashtest.OpWrite, Path: epi, Data: epiData(ci)}}); err != nil {
			t.Fatalf("seed %d client %d: epilogue write: %v", seed, ci, err)
		}
		rig.drop.Store(true)
		if err := mo.Run(rig.target, []crashtest.Step{{Op: crashtest.OpRename, Path: epi, To: epi + ".r"}}); err != nil {
			t.Fatalf("seed %d client %d: epilogue rename across reply loss: %v", seed, ci, err)
		}
	}
	if got := in.Env.Metrics.Counter("fsserve.drc.hit").Load(); got < preHits+int64(nClients) {
		t.Errorf("seed %d: epilogue drove %d reply losses but fsserve.drc.hit rose only %d",
			seed, nClients, got-preHits)
	}

	for ci, rig := range rigs {
		rig.cli.Close()
		if got := rig.reg.Counter("fsrpc.redial.success").Load(); got < 2 {
			t.Errorf("seed %d client %d: survived %d connections but fsrpc.redial.success = %d",
				seed, ci, rig.plan.Conns(), got)
		}
	}

	// Every entry the programs leave must be on the mount with exactly
	// their bytes, and nothing else: a lost mutation shows as a missing
	// entry or a stale byte, a double-applied one as an extra entry or a
	// byte out of place.
	if err := mo.Check(in.Mount); err != nil {
		t.Errorf("seed %d: the served mount after faults differs from the programs:\n%v", seed, err)
	}
	return in.Env.Metrics.Counter("fsserve.drc.hit").Load()
}

// TestSeededFaultSweep is the tentpole torture test: three seeded
// disconnect schedules, two concurrent clients each, every connection
// cut mid-stream, final state exactly what the programs wrote. At least
// one replayed mutation across the sweep must be answered from the
// duplicate-reply cache rather than re-executed.
func TestSeededFaultSweep(t *testing.T) {
	var drcHits int64
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			drcHits += runSweep(t, seed, 2)
		})
	}
	if !t.Failed() && drcHits == 0 {
		t.Errorf("sweep produced no duplicate-reply-cache hits; fault schedule never cut a reply in flight")
	}
}
