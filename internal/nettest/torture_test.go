package nettest

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"betrfs/internal/bench"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/metrics"
	"betrfs/internal/vfs"
)

// tortureFS abstracts the workload driver over its two backends: the
// fsrpc client (torture run, connections cut by a Plan) and the mount
// itself (fault-free oracle run). The same deterministic script runs on
// both; the resulting trees must match byte for byte.
type tortureFS interface {
	Mkdir(p string) error
	Create(p string) (any, error)
	WriteAt(f any, off int64, data []byte) error
	// WriteBurst issues the writes pipelined where the backend supports
	// it (the remote client), sequentially otherwise. Offsets never
	// overlap, so completion order does not matter.
	WriteBurst(f any, offs []int64, chunks [][]byte) error
	ReadAt(f any, off int64, n int) ([]byte, error)
	Fsync(f any) error
	Rename(o, n string) error
	Unlink(p string) error
}

// remoteFS drives the workload through an fsrpc client.
type remoteFS struct{ cli *fsrpc.Client }

func (r remoteFS) Mkdir(p string) error { return r.cli.Mkdir(p) }
func (r remoteFS) Create(p string) (any, error) {
	h, _, err := r.cli.Create(p)
	return h, err
}
func (r remoteFS) WriteAt(f any, off int64, data []byte) error {
	n, err := r.cli.Write(f.(uint64), off, data)
	if err == nil && n != len(data) {
		return fmt.Errorf("short write: %d of %d", n, len(data))
	}
	return err
}
func (r remoteFS) WriteBurst(f any, offs []int64, chunks [][]byte) error {
	h := f.(uint64)
	calls := make([]*fsrpc.Call, len(offs))
	for i := range offs {
		calls[i] = r.cli.Go(context.Background(), &fsrpc.Request{
			Op: fsrpc.OpWrite, Handle: h, Off: offs[i], Data: chunks[i],
		})
	}
	for i, call := range calls {
		<-call.Done()
		if call.Err != nil {
			return fmt.Errorf("burst write %d: %w", i, call.Err)
		}
	}
	return nil
}
func (r remoteFS) ReadAt(f any, off int64, n int) ([]byte, error) {
	return r.cli.Read(f.(uint64), off, n)
}
func (r remoteFS) Fsync(f any) error      { return r.cli.Fsync(f.(uint64)) }
func (r remoteFS) Rename(o, n string) error { return r.cli.Rename(o, n) }
func (r remoteFS) Unlink(p string) error  { return r.cli.Unlink(p) }

// localFS drives the workload straight into a mount (the oracle).
type localFS struct{ m *vfs.Mount }

func (l localFS) Mkdir(p string) error { return l.m.Mkdir(p) }
func (l localFS) Create(p string) (any, error) {
	return l.m.Create(p)
}
func (l localFS) WriteAt(f any, off int64, data []byte) error {
	n, err := f.(*vfs.File).WriteAt(data, off)
	if err == nil && n != len(data) {
		return fmt.Errorf("short write: %d of %d", n, len(data))
	}
	return err
}
func (l localFS) WriteBurst(f any, offs []int64, chunks [][]byte) error {
	for i := range offs {
		if err := l.WriteAt(f, offs[i], chunks[i]); err != nil {
			return err
		}
	}
	return nil
}
func (l localFS) ReadAt(f any, off int64, n int) ([]byte, error) {
	buf := make([]byte, n)
	got, err := f.(*vfs.File).ReadAt(buf, off)
	return buf[:got], err
}
func (l localFS) Fsync(f any) error      { return f.(*vfs.File).Fsync() }
func (l localFS) Rename(o, n string) error { return l.m.Rename(o, n) }
func (l localFS) Unlink(p string) error  { return l.m.Remove(p) }

// chunkData is the deterministic payload for client ci, file j, chunk k.
func chunkData(ci, j, k, n int) []byte {
	return bytes.Repeat([]byte{byte(ci*31 + j*7 + k + 1)}, n)
}

// runScript executes client ci's deterministic workload: a directory
// tree, file creates with multi-chunk writes, fsyncs, renames, unlinks,
// read-back checks, and a pipelined write burst. The script depends only
// on ci, never on the fault schedule, so the oracle run is identical.
func runScript(fs tortureFS, ci int) error {
	base := fmt.Sprintf("c%d", ci)
	if err := fs.Mkdir(base); err != nil {
		return fmt.Errorf("mkdir %s: %w", base, err)
	}
	rng := rand.New(rand.NewSource(int64(1000 + ci)))
	var live []string
	for j := 0; j < 40; j++ {
		dir := fmt.Sprintf("%s/d%d", base, j%4)
		if j < 4 {
			if err := fs.Mkdir(dir); err != nil {
				return fmt.Errorf("mkdir %s: %w", dir, err)
			}
		}
		p := fmt.Sprintf("%s/f%03d", dir, j)
		f, err := fs.Create(p)
		if err != nil {
			return fmt.Errorf("create %s: %w", p, err)
		}
		chunks := 1 + rng.Intn(3)
		var first []byte
		for k := 0; k < chunks; k++ {
			data := chunkData(ci, j, k, 1024+rng.Intn(3072))
			if k == 0 {
				first = data
			}
			if err := fs.WriteAt(f, int64(k)*4096, data); err != nil {
				return fmt.Errorf("write %s chunk %d: %w", p, k, err)
			}
		}
		if j%5 == 0 {
			if err := fs.Fsync(f); err != nil {
				return fmt.Errorf("fsync %s: %w", p, err)
			}
		}
		if j%4 == 0 {
			got, err := fs.ReadAt(f, 0, 512)
			if err != nil {
				return fmt.Errorf("read %s: %w", p, err)
			}
			if !bytes.Equal(got, first[:512]) {
				return fmt.Errorf("read %s: content mismatch after write", p)
			}
		}
		if j%3 == 0 {
			np := p + ".r"
			if err := fs.Rename(p, np); err != nil {
				return fmt.Errorf("rename %s: %w", p, err)
			}
			p = np
		}
		live = append(live, p)
		if j%7 == 0 && len(live) > 3 {
			victim := live[0]
			live = live[1:]
			if err := fs.Unlink(victim); err != nil {
				return fmt.Errorf("unlink %s: %w", victim, err)
			}
		}
	}
	// Pipelined burst: several writes in flight at once, so a cut can
	// strand a whole window of fate-unknown mutations for replay.
	bp := fmt.Sprintf("%s/burst", base)
	bf, err := fs.Create(bp)
	if err != nil {
		return fmt.Errorf("create %s: %w", bp, err)
	}
	const burst = 8
	offs := make([]int64, burst)
	chunks := make([][]byte, burst)
	for k := 0; k < burst; k++ {
		offs[k] = int64(k) * 2048
		chunks[k] = chunkData(ci, 999, k, 2048)
	}
	if err := fs.WriteBurst(bf, offs, chunks); err != nil {
		return fmt.Errorf("burst %s: %w", bp, err)
	}
	if err := fs.Fsync(bf); err != nil {
		return fmt.Errorf("fsync %s: %w", bp, err)
	}
	return nil
}

// snapTree records every path under root as "dir" or the full file
// contents.
func snapTree(m *vfs.Mount, root string, out map[string]string) error {
	ents, err := m.ReadDir(root)
	if err != nil {
		return fmt.Errorf("readdir %s: %w", root, err)
	}
	for _, ent := range ents {
		p := root + "/" + ent.Name
		if ent.Dir {
			out[p] = "dir"
			if err := snapTree(m, p, out); err != nil {
				return err
			}
			continue
		}
		f, err := m.Open(p)
		if err != nil {
			return fmt.Errorf("open %s: %w", p, err)
		}
		data := make([]byte, f.Size())
		if len(data) > 0 {
			n, rerr := f.ReadAt(data, 0)
			if rerr != nil || n != len(data) {
				f.Close()
				return fmt.Errorf("read %s: %d of %d bytes, %v", p, n, len(data), rerr)
			}
		}
		f.Close()
		out[p] = "file:" + string(data)
	}
	return nil
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
	cfg.QueueDepth = 1024 // no shedding: every acknowledged op must land
	cfg.SessionLease = time.Hour // long: the sweep tests cuts, not expiry
	srv := fsserve.New(in.Env, in.Mount, cfg)
	return in, srv
}

// runSweep runs one seeded torture round: nClients clients in disjoint
// directories, every connection cut by the plan, and the surviving tree
// compared byte for byte with a fault-free oracle. It returns the
// server's duplicate-reply-cache hit count for cross-seed aggregation.
func runSweep(t *testing.T, seed int64, nClients int) int64 {
	t.Helper()
	in, srv := tortureServer()
	defer srv.Shutdown()

	type clientRig struct {
		cli  *fsrpc.Client
		reg  *metrics.Registry
		plan *Plan
		drop atomic.Bool
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
		rigs[ci] = rig
	}

	var wg sync.WaitGroup
	errs := make([]error, nClients)
	for ci := range rigs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			errs[ci] = runScript(remoteFS{cli: rigs[ci].cli}, ci)
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
	// cut onto a fault-free connection, then swallow the reply to one
	// WRITE server-side — so the sweep always exercises a DRC hit: the
	// replayed WRITE must be answered from cache, not re-executed.
	preHits := in.Env.Metrics.Counter("fsserve.drc.hit").Load()
	for ci, rig := range rigs {
		rig.plan.Calm()
		rig.plan.CutLive()
		fs := remoteFS{cli: rig.cli}
		p := fmt.Sprintf("c%d/epi", ci)
		h, err := fs.Create(p)
		if err != nil {
			t.Fatalf("seed %d client %d: epilogue create: %v", seed, ci, err)
		}
		rig.drop.Store(true)
		if err := fs.WriteAt(h, 0, epiData(ci)); err != nil {
			t.Fatalf("seed %d client %d: epilogue write across reply loss: %v", seed, ci, err)
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

	// Fault-free oracle: same scripts (epilogue included), straight into
	// a fresh mount.
	oracle := bench.Build("betrfs-v0.6", 256)
	for ci := 0; ci < nClients; ci++ {
		if err := runScript(localFS{m: oracle.Mount}, ci); err != nil {
			t.Fatalf("oracle client %d: %v", ci, err)
		}
		ofs := localFS{m: oracle.Mount}
		h, err := ofs.Create(fmt.Sprintf("c%d/epi", ci))
		if err != nil {
			t.Fatalf("oracle client %d: epilogue create: %v", ci, err)
		}
		if err := ofs.WriteAt(h, 0, epiData(ci)); err != nil {
			t.Fatalf("oracle client %d: epilogue write: %v", ci, err)
		}
	}

	for ci := 0; ci < nClients; ci++ {
		root := fmt.Sprintf("c%d", ci)
		got := map[string]string{"": "dir"}
		want := map[string]string{"": "dir"}
		if err := snapTree(in.Mount, root, got); err != nil {
			t.Fatalf("seed %d: snapshot torture tree: %v", seed, err)
		}
		if err := snapTree(oracle.Mount, root, want); err != nil {
			t.Fatalf("seed %d: snapshot oracle tree: %v", seed, err)
		}
		if len(got) != len(want) {
			t.Errorf("seed %d %s: torture tree has %d entries, oracle %d", seed, root, len(got), len(want))
		}
		for p, w := range want {
			g, ok := got[p]
			if !ok {
				t.Errorf("seed %d: %s missing after faults", seed, p)
				continue
			}
			if g != w {
				t.Errorf("seed %d: %s differs from oracle (%d vs %d bytes)", seed, p, len(g), len(w))
			}
		}
		for p := range got {
			if _, ok := want[p]; !ok {
				t.Errorf("seed %d: %s exists after faults but not in oracle (double-applied mutation?)", seed, p)
			}
		}
	}
	return in.Env.Metrics.Counter("fsserve.drc.hit").Load()
}

// TestSeededFaultSweep is the tentpole torture test: three seeded
// disconnect schedules, two concurrent clients each, every connection
// cut mid-stream, final state byte-identical to a fault-free run. At
// least one replayed mutation across the sweep must be answered from the
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
