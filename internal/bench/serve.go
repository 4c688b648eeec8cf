package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/metrics"
)

// Serve-bench mode: betrbench -serve -clients N mounts each system behind
// an fsserve server and drives N client sessions through the fsrpc wire
// path over in-process pipes.
//
// With workers <= 1 the run is deterministic — one driver goroutine issues
// ops round-robin across the sessions against a single-worker server, so
// requests execute in a fixed order and the latency histogram (hence the
// reported percentiles) is bit-identical run to run at a fixed seed.
//
// With workers > 1 the run measures pipelining against a synchronous
// client in the same invocation (EXPERIMENTS.md "Pipelined serve"). Both
// passes use the same server, the same topology — one connection per
// bench client, shared by that client's `streams` concurrent scripts —
// and the same scripts with the same total concurrency. The sync pass
// caps each connection at window 1 (one call at a time per connection);
// the pipelined pass opens the full async window, so the same streams'
// calls overlap in flight. Per-call wall latency is collected client-side
// (pipe_p50/pipe_p99 vs sync_p50/sync_p99).

// ServeSystems lists the systems the serve bench sweeps: the five
// fault-injection stacks (one representative per FS family plus both
// BetrFS generations).
var ServeSystems = []string{"ext4", "f2fs", "btrfs", "betrfs-v0.4", "betrfs-v0.6"}

// ServeResult is one system's serve-bench row. The Pipe*/Sync* fields are
// populated only by the concurrent mode (workers > 1); Streams == 0 marks
// a deterministic row.
type ServeResult struct {
	System   string
	Clients  int
	Workers  int
	Ops      int64         // completed client calls (pipelined pass when workers > 1)
	Shed     int64         // requests shed with EBUSY (queue full or deadline)
	SimTime  time.Duration // simulated time consumed
	WallTime time.Duration // host wall clock of the (pipelined) pass
	P50      int64         // per-op simulated latency percentiles, ns
	P95      int64
	P99      int64
	Errors   []string

	Streams int // concurrent scripts multiplexed per client connection
	Window  int // client in-flight window of the pipelined pass

	PipeP50  int64 // client-observed wall latency, pipelined pass, ns
	PipeP99  int64
	SyncP50  int64 // client-observed wall latency, window-1 sync pass, ns
	SyncP99  int64
	SyncOps  int64
	SyncWall time.Duration
}

// KOpsPerSimSec reports simulated wire-op throughput.
func (r ServeResult) KOpsPerSimSec() float64 {
	if r.SimTime <= 0 {
		return 0
	}
	return float64(r.Ops) / r.SimTime.Seconds() / 1000
}

// wireClient is the client surface the bench scripts drive: exactly the
// file-class convenience methods of *fsrpc.Client. The shard rung
// substitutes *controlplane.Client — the prefix-routing multiplexer —
// behind the same scripts, so the single-mount and sharded modes measure
// identical op sequences.
type wireClient interface {
	Lookup(path string, open bool) (uint64, fsrpc.Attr, error)
	Getattr(path string) (fsrpc.Attr, error)
	Create(path string) (uint64, fsrpc.Attr, error)
	Read(handle uint64, off int64, n int) ([]byte, error)
	Write(handle uint64, off int64, data []byte) (int, error)
	Fsync(handle uint64) error
	Mkdir(path string) error
	Unlink(path string) error
	Rename(oldPath, newPath string) error
	Readdir(path string) ([]fsrpc.DirEnt, error)
	Statfs() (fsrpc.Statfs, error)
	Close() error
}

// serveClient is one scripted session driver: the wire client (possibly
// shared with other drivers on the same connection in pipelined mode), the
// handle the previous step produced, and the first error (which stops the
// script). With record set it collects per-step wall latency.
type serveClient struct {
	cli    wireClient
	h      uint64
	steps  []func(*serveClient) error
	next   int
	err    error
	ops    int64
	record bool
	warmup int // first steps excluded from latency recording (cold start)
	lat    []int64
}

// buildScript returns the per-client op sequence for the deterministic
// driver. Every step is exactly one wire call, so the round-robin driver
// interleaves sessions at op granularity. Handles flow through d.h.
func buildScript(c int, files int, payload []byte) []func(*serveClient) error {
	return buildScriptDir(fmt.Sprintf("client%03d", c), 0, 1, files, payload)
}

// buildScriptDir is the script body, parameterized on the working
// directory so the concurrent modes can run several independent scripts
// (one per stream) per client, on the fsync phase so concurrently driven
// streams don't all hit the globally serializing fsync on the same step,
// and on the number of read-back rounds so the concurrent comparison can
// weight the READ path (where the zero-copy reply machinery lives).
// phase 0 / rounds 1 preserve the historical deterministic sequence.
func buildScriptDir(dir string, phase, rounds, files int, payload []byte) []func(*serveClient) error {
	var steps []func(*serveClient) error
	steps = append(steps, func(d *serveClient) error { return d.cli.Mkdir(dir) })
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("%s/f%05d", dir, i)
		steps = append(steps, func(d *serveClient) error {
			h, _, err := d.cli.Create(path)
			d.h = h
			return err
		})
		steps = append(steps, func(d *serveClient) error {
			_, err := d.cli.Write(d.h, 0, payload)
			return err
		})
		if i%16 == phase%16 {
			steps = append(steps, func(d *serveClient) error { return d.cli.Fsync(d.h) })
		}
	}
	for r := 0; r < rounds; r++ {
		for i := r % 4; i < files; i += 4 {
			path := fmt.Sprintf("%s/f%05d", dir, i)
			steps = append(steps, func(d *serveClient) error {
				h, _, err := d.cli.Lookup(path, true)
				d.h = h
				return err
			})
			steps = append(steps, func(d *serveClient) error {
				_, err := d.cli.Read(d.h, 0, len(payload))
				return err
			})
			steps = append(steps, func(d *serveClient) error {
				_, err := d.cli.Getattr(path)
				return err
			})
		}
	}
	steps = append(steps, func(d *serveClient) error {
		_, err := d.cli.Readdir(dir)
		return err
	})
	steps = append(steps, func(d *serveClient) error {
		return d.cli.Rename(dir+"/f00000", dir+"/renamed")
	})
	steps = append(steps, func(d *serveClient) error { return d.cli.Unlink(dir + "/renamed") })
	steps = append(steps, func(d *serveClient) error {
		_, err := d.cli.Statfs()
		return err
	})
	return steps
}

// step runs one script step, retrying when the server sheds it with EBUSY
// (only possible in the concurrent configuration). A handle evicted by the
// bounded table surfaces as EBADF mid-script; the script treats any other
// error as fatal for this client. When recording, the step's wall latency
// (shed retries included — the client really did wait that long) lands in
// d.lat.
func (d *serveClient) step() bool {
	if d.err != nil || d.next >= len(d.steps) {
		return false
	}
	fn := d.steps[d.next]
	rec := d.record && d.next >= d.warmup
	var t0 time.Time
	if rec {
		t0 = time.Now()
	}
	for try := 0; ; try++ {
		err := fn(d)
		if err == nil {
			d.ops++
			if rec {
				d.lat = append(d.lat, time.Since(t0).Nanoseconds())
			}
			break
		}
		if errors.Is(err, fsrpc.ErrBusy) && try < 1000 {
			continue // shed under load; the server counted it, retry
		}
		d.err = fmt.Errorf("step %d: %w", d.next, err)
		break
	}
	d.next++
	return d.err == nil && d.next < len(d.steps)
}

// medianInt64 returns the median of vs (not necessarily sorted).
func medianInt64(vs []int64) int64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// wallQuantile is the exact rank-based quantile of a sorted latency set.
func wallQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// phaseResult aggregates one concurrent driving pass.
type phaseResult struct {
	ops  int64
	lat  []int64 // sorted per-call wall ns
	errs []string
	wall time.Duration
}

// driveStagger is the per-stream launch offset. Starting every stream on
// the same instant measures a synchronized cold-start convoy instead of
// steady-state latency (especially on small core counts); a short ramp
// desynchronizes the arrivals. Applied identically in both modes.
const driveStagger = 200 * time.Microsecond

// drive runs every script to completion, one goroutine per script, and
// merges the recorded latencies.
func drive(cls []*serveClient) phaseResult {
	start := time.Now()
	var wg sync.WaitGroup
	for i, d := range cls {
		wg.Add(1)
		go func(d *serveClient, delay time.Duration) {
			defer wg.Done()
			time.Sleep(delay)
			for d.step() {
			}
		}(d, time.Duration(i)*driveStagger)
	}
	wg.Wait()
	pr := phaseResult{wall: time.Since(start)}
	for i, d := range cls {
		pr.ops += d.ops
		pr.lat = append(pr.lat, d.lat...)
		if d.err != nil {
			pr.errs = append(pr.errs, fmt.Sprintf("client %d: %v", i, d.err))
		}
	}
	sort.Slice(pr.lat, func(i, j int) bool { return pr.lat[i] < pr.lat[j] })
	return pr
}

// RunServe benchmarks the wire path: it mounts system behind an fsserve
// server, connects `clients` sessions over net.Pipe, runs the scripted
// workload on each, and reports throughput, per-op simulated latency
// percentiles, and the shed count, plus the instance's full metric
// snapshot (fsrpc.* / fsserve.* included). With workers > 1 it runs the
// synchronous baseline and the pipelined pass back to back (see the
// package comment) and reports both passes' client-observed percentiles;
// the returned snapshot is the pipelined instance's.
func RunServe(system string, scale int64, clients, workers int) (ServeResult, metrics.Snapshot) {
	if clients < 1 {
		clients = 1
	}
	if workers <= 1 {
		return runServeDeterministic(system, scale, clients)
	}
	return runServePipelined(system, scale, clients, workers)
}

func servePayload() []byte {
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	return payload
}

func serveFiles(scale int64) int {
	files := int(6400 / scale)
	if files < 16 {
		files = 16
	}
	return files
}

// runServeDeterministic is the single-worker round-robin mode: one
// synchronous call in flight at a time, so the server executes ops in a
// fixed global order and the document is bit-identical run to run.
func runServeDeterministic(system string, scale int64, clients int) (ServeResult, metrics.Snapshot) {
	in := Build(system, scale)
	srv := fsserve.New(in.Env, in.Mount, fsserve.DefaultConfig())

	files := serveFiles(scale)
	payload := servePayload()
	cls := make([]*serveClient, clients)
	for c := range cls {
		cliEnd, srvEnd := net.Pipe()
		go srv.ServeConn(srvEnd)
		// The instance registry makes the client-side resilience counters
		// (fsrpc.redial.* etc., all zero on this fault-free path) part of
		// the snapshot, which schema v5 requires on serve documents.
		cli := fsrpc.NewClientOpts(cliEnd, fsrpc.Options{Metrics: in.Env.Metrics})
		cls[c] = &serveClient{cli: cli, steps: buildScript(c, files, payload)}
	}

	start := in.Env.Now()
	wallStart := time.Now()
	driveRoundRobin(cls)
	out := ServeResult{
		System:   system,
		Clients:  clients,
		Workers:  1,
		SimTime:  in.Env.Now() - start,
		WallTime: time.Since(wallStart),
	}
	for c, d := range cls {
		out.Ops += d.ops
		if d.err != nil {
			out.Errors = append(out.Errors, fmt.Sprintf("client %d: %v", c, d.err))
		}
		d.cli.Close()
	}
	srv.Shutdown()

	snap := in.Env.Metrics.Snapshot()
	h := snap.Histograms["fsserve.op.ns"]
	out.P50 = h.Quantile(0.50)
	out.P95 = h.Quantile(0.95)
	out.P99 = h.Quantile(0.99)
	out.Shed = snap.Counters["fsserve.queue.shed"] + snap.Counters["fsserve.deadline.shed"]
	return out, snap
}

// serveTrials is how many sync/pipelined trial pairs the concurrent mode
// runs. Each trial runs against a fresh instance; the reported
// percentiles are the median across trials of the per-trial percentiles,
// so one environmental stall (cgroup throttle, host contention) landing
// in one trial cannot swing the comparison. Pairs alternate ABBA order —
// sync-first on even pairs, pipelined-first on odd ones — so slow host
// drift (thermal, background load) cancels out of the comparison instead
// of consistently taxing whichever mode runs second. Even count keeps the
// orders balanced.
const serveTrials = 16

// servePipePayload is the I/O size of the concurrent comparison.
const servePipePayload = 4 << 10

// servePipeReadRounds weights the concurrent script toward read-backs for
// the same reason.
const servePipeReadRounds = 4

// serveWarmup is the number of leading script steps excluded from latency
// recording in BOTH modes: the first ops of every stream land on a cold
// b-tree and an empty cache, and with all streams starting at once that
// transient is a convoy, not steady-state wire latency.
const serveWarmup = 5

// runServeTrial runs one full driving pass — every stream's script to
// completion — over a fresh instance of system, with either a window-1
// client (the sync pass) or the full async window (the pipelined pass).
// The server and the topology are identical in both — one shared
// connection per bench client carrying all of that client's streams — so
// the comparison isolates pipelining alone: whether calls on one
// connection can overlap. Workload and total concurrency are identical
// too.
// It returns the phase result plus the instance's final snapshot and
// consumed simulated time.
func runServeTrial(system string, scale int64, clients, streams, workers, files int, payload []byte, pipelined bool) (phaseResult, metrics.Snapshot, time.Duration) {
	// Collect the previous trial's garbage first so every trial starts
	// from the same heap state.
	runtime.GC()
	in := BuildConcurrent(system, scale, workers)
	cfg := fsserve.DefaultConfig()
	cfg.Workers = workers
	srv := fsserve.New(in.Env, in.Mount, cfg)
	var cls []*serveClient
	var conns []*fsrpc.Client
	for c := 0; c < clients; c++ {
		// One connection per bench client, shared by all of its streams —
		// in both modes. The sync pass caps that connection at window 1, so
		// a client's streams serialize on the wire; the pipelined pass opens
		// the full window and the same streams' calls interleave in flight
		// over the same single connection. The transport is the buffered
		// duplex (wirebuf.go), not net.Pipe, so frame writes behave like
		// socket writes instead of rendezvous.
		cliEnd, srvEnd := bufPipe()
		go srv.ServeConn(srvEnd)
		opts := fsrpc.Options{Metrics: in.Env.Metrics}
		if !pipelined {
			opts.Window = 1
		}
		cli := fsrpc.NewClientOpts(cliEnd, opts)
		conns = append(conns, cli)
		for s := 0; s < streams; s++ {
			// The fsync phase is the global stream index, so concurrent
			// streams spread their globally serializing WAL fsyncs across
			// different steps instead of convoying on the same one.
			phase := c*streams + s
			steps := buildScriptDir(fmt.Sprintf("client%03d_s%02d", c, s), phase, servePipeReadRounds, files, payload)
			cls = append(cls, &serveClient{
				cli:    cli,
				record: true,
				warmup: serveWarmup,
				steps:  steps,
			})
		}
	}
	simStart := in.Env.Now()
	pr := drive(cls)
	simTime := in.Env.Now() - simStart
	for _, cl := range conns {
		cl.Close()
	}
	srv.Shutdown()
	return pr, in.Env.Metrics.Snapshot(), simTime
}

// runServePipelined measures the async pipelined wire path against the
// synchronous baseline with identical workloads and total concurrency:
// clients × streams scripts, each over its own working directory. It
// interleaves serveTrials sync/pipelined trial pairs and reports the
// median across trials of each mode's per-trial percentiles; op counts,
// sim time, and the returned metric snapshot come from the last
// pipelined trial so the snapshot's counters reconcile with the
// reported Ops.
func runServePipelined(system string, scale int64, clients, workers int) (ServeResult, metrics.Snapshot) {
	streams := workers / clients
	if streams < 1 {
		streams = 1
	}
	// Floor the per-stream script length well above the deterministic
	// mode's: the per-trial p99 is an order statistic, and with fewer than
	// ~100 recorded steps per stream it sits on the 5th-odd-worst sample
	// of the trial — pure noise on a busy host.
	files := serveFiles(scale) / streams
	if files < 24 {
		files = 24
	}
	payload := make([]byte, servePipePayload)
	for i := range payload {
		payload[i] = byte(i)
	}

	// The comparison measures the wire path, not the collector: with the
	// GC free to run it preempts whichever pass happens to cross a heap
	// goal, and every request queued at that moment keeps its latency
	// clock running — a multi-millisecond artifact dwarfing the ~100µs
	// medians. Disable automatic GC for the duration and collect
	// explicitly between trials (runServeTrial does), identically for
	// both modes.
	prevGC := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(prevGC)

	// Each trial's percentiles are computed over that trial's recorded
	// samples; the reported figure per mode is the median across the 16
	// trials of the per-trial percentile. A tail statistic on a shared
	// single-CPU host is hostage to whichever trial catches an
	// environmental stall (cgroup throttle, background load); the median
	// across trials votes those outlier trials away symmetrically instead
	// of letting one ruined trial decide the comparison.
	var syncP50s, syncP99s, pipeP50s, pipeP99s []int64
	var syncPR, pipePR phaseResult
	var errs []string
	var snap metrics.Snapshot
	var simTime time.Duration
	runSync := func(t int) {
		syncPR, _, _ = runServeTrial(system, scale, clients, streams, workers, files, payload, false)
		syncP50s = append(syncP50s, wallQuantile(syncPR.lat, 0.50))
		syncP99s = append(syncP99s, wallQuantile(syncPR.lat, 0.99))
		for _, e := range syncPR.errs {
			errs = append(errs, fmt.Sprintf("sync trial %d: %s", t, e))
		}
	}
	runPipe := func(t int) {
		pipePR, snap, simTime = runServeTrial(system, scale, clients, streams, workers, files, payload, true)
		pipeP50s = append(pipeP50s, wallQuantile(pipePR.lat, 0.50))
		pipeP99s = append(pipeP99s, wallQuantile(pipePR.lat, 0.99))
		for _, e := range pipePR.errs {
			errs = append(errs, fmt.Sprintf("pipe trial %d: %s", t, e))
		}
	}
	for t := 0; t < serveTrials; t++ {
		if t%2 == 0 {
			runSync(t)
			runPipe(t)
		} else {
			runPipe(t)
			runSync(t)
		}
	}

	out := ServeResult{
		System:   system,
		Clients:  clients,
		Workers:  workers,
		Streams:  streams,
		Window:   fsrpc.DefaultWindow,
		Ops:      pipePR.ops,
		SimTime:  simTime,
		WallTime: pipePR.wall,
		PipeP50:  medianInt64(pipeP50s),
		PipeP99:  medianInt64(pipeP99s),
		SyncP50:  medianInt64(syncP50s),
		SyncP99:  medianInt64(syncP99s),
		SyncOps:  syncPR.ops,
		SyncWall: syncPR.wall,
		Errors:   errs,
	}

	h := snap.Histograms["fsserve.op.ns"]
	out.P50 = h.Quantile(0.50)
	out.P95 = h.Quantile(0.95)
	out.P99 = h.Quantile(0.99)
	out.Shed = snap.Counters["fsserve.queue.shed"] + snap.Counters["fsserve.deadline.shed"]
	return out, snap
}

// serveColumn mirrors microColumn for the serve table.
type serveColumn struct {
	Name  string
	Unit  string
	Lower bool
	Get   func(ServeResult) float64
}

var serveColumns = []serveColumn{
	{"wire_ops", "kop/s", false, func(r ServeResult) float64 { return r.KOpsPerSimSec() }},
	{"p50", "ns", true, func(r ServeResult) float64 { return float64(r.P50) }},
	{"p95", "ns", true, func(r ServeResult) float64 { return float64(r.P95) }},
	{"p99", "ns", true, func(r ServeResult) float64 { return float64(r.P99) }},
	{"shed", "ops", true, func(r ServeResult) float64 { return float64(r.Shed) }},
}

// servePipeColumns extends the deterministic columns with the pipelined
// vs synchronous client-observed wall percentiles (EXPERIMENTS.md
// "Pipelined serve"); used when rows carry a pipelined pass.
var servePipeColumns = append(append([]serveColumn{}, serveColumns...),
	serveColumn{"pipe_p50", "ns", true, func(r ServeResult) float64 { return float64(r.PipeP50) }},
	serveColumn{"pipe_p99", "ns", true, func(r ServeResult) float64 { return float64(r.PipeP99) }},
	serveColumn{"sync_p50", "ns", true, func(r ServeResult) float64 { return float64(r.SyncP50) }},
	serveColumn{"sync_p99", "ns", true, func(r ServeResult) float64 { return float64(r.SyncP99) }},
	serveColumn{"pipe_wall", "ms", true, func(r ServeResult) float64 { return float64(r.WallTime.Milliseconds()) }},
	serveColumn{"sync_wall", "ms", true, func(r ServeResult) float64 { return float64(r.SyncWall.Milliseconds()) }},
)

// serveColumnsFor picks the column set for a row set: deterministic rows
// (Streams == 0) keep the historical five columns — and their golden
// values — while pipelined rows add the before/after wall percentiles.
func serveColumnsFor(rows []ServeResult) []serveColumn {
	for _, r := range rows {
		if r.Streams > 0 {
			return servePipeColumns
		}
	}
	return serveColumns
}

// WriteServeTable renders the human-readable serve-bench table.
func WriteServeTable(w io.Writer, rows []ServeResult) {
	cols := serveColumnsFor(rows)
	fmt.Fprintf(w, "%-14s", "system")
	for _, c := range cols {
		fmt.Fprintf(w, " | %14s", fmt.Sprintf("%s (%s)", c.Name, c.Unit))
	}
	fmt.Fprintf(w, " | %10s\n", "wall")
	fmt.Fprintln(w, strings.Repeat("-", 14+len(cols)*17+13))
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s", r.System)
		for _, c := range cols {
			fmt.Fprintf(w, " | %14.1f", c.Get(r))
		}
		fmt.Fprintf(w, " | %10s\n", r.WallTime.Truncate(time.Millisecond))
	}
}
