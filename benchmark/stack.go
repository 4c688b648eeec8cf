package main

// stack.go is the benchmark's whole API surface onto the repository: every
// import of a betrfs/internal package, every constructor call and every
// interface the benchmark implements lives in this one file (README.md
// "API surface"; import_test.go enforces it). The other files reach the
// stack only through the aliases and helpers declared here.

import (
	"errors"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"betrfs/internal/betree"
	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/ftl"
	"betrfs/internal/keys"
	"betrfs/internal/kmem"
	"betrfs/internal/metrics"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
	"betrfs/internal/stor"
	"betrfs/internal/vfs"
	"betrfs/internal/wal"
)

type (
	simEnv     = sim.Env
	mount      = vfs.Mount
	vfsFile    = vfs.File
	vfsFS      = vfs.FS
	vfsHandle  = vfs.Handle
	vfsPage    = vfs.Page
	dirEntry   = vfs.DirEntry
	wireClient = fsrpc.Client
	snapshot   = metrics.Snapshot
)

var errNotExist = vfs.ErrNotExist

// deviceScale divides the paper's testbed (250 GB SSD, 32 GiB RAM). The
// simulated workloads' sizes in sizes.go are ratios of the machine's, so
// their regimes (file 5x either cache, log wrapped 1.5x) hold at any scale;
// 1/512 is the largest machine whose full driver schedule fits the time
// cap, and serve_mix's absolute sizes still sit inside its caches and log.
const deviceScale = 512

const (
	cacheBytes = int64(32<<30) / deviceScale / 2 // node cache and page cache, 32 MiB each
	pageSize   = vfs.PageSize
)

// stackOpts selects the variant of the one stack every workload runs on.
type stackOpts struct {
	// concurrent switches on the mount lock, the tree's locking protocol
	// and two background pool workers (serve_mix).
	concurrent bool
	// tr, when set, decorates the four interface seams with spans.
	tr *tracer
	// wrapFS, when set, decorates the vfs.FS seam (serve_mix's engine
	// timer; the corrupted-read test).
	wrapFS func(vfsFS) vfsFS
}

// stack is betrfs-v0.6 over SFL over the FTL over the scaled 860 EVO,
// built from the public constructors exactly as bench.Build does.
type stack struct {
	env   *simEnv
	mount *mount
	raw   *blockdev.Dev

	// Set only when traced.
	mapped  pageMap
	backend *tracedBackend
}

func buildStack(o stackOpts) (*stack, error) {
	env := sim.NewEnv(1)
	if o.concurrent {
		env.Pool.SetWorkers(2)
	}
	raw := blockdev.New(env, blockdev.SamsungEVO860().Scale(deviceScale))
	s := &stack{env: env, raw: raw}

	var lower blockdev.Device = raw
	if o.tr != nil {
		o.tr.simNow = s.simNow
		s.mapped = make(pageMap, (raw.Size()/pageSize+63)/64)
		lower = &tracedDev{Device: raw, tr: o.tr, layer: layerBlockdev, mapped: s.mapped}
	}
	var upper blockdev.Device = ftl.New(env, lower, ftl.DefaultConfig())
	if o.tr != nil {
		upper = &tracedDev{Device: upper, tr: o.tr, layer: layerFTL}
	}

	cfg := betrfs.V06Config()
	cfg.Tree.CacheBytes = cacheBytes
	cfg.Tree.Concurrent = o.concurrent
	if o.tr != nil {
		o.tr.begin(layerEngine, "new")
	}
	alloc := kmem.New(env, cfg.CooperativeMem)
	files, err := sfl.NewDefault(env, upper)
	if err != nil {
		return nil, fmt.Errorf("sfl: %w", err)
	}
	var backend betree.Backend = files
	if o.tr != nil {
		s.backend = &tracedBackend{inner: files, tr: o.tr, files: map[string]*tracedFile{}}
		backend = s.backend
	}
	var fs vfsFS
	if fs, err = betrfs.New(env, alloc, cfg, backend); err != nil {
		return nil, fmt.Errorf("betrfs: %w", err)
	}
	if o.tr != nil {
		o.tr.end()
		end := o.tr.end
		fs = &seamFS{FS: fs, span: func(op string) func() {
			o.tr.begin(layerEngine, op)
			return end
		}}
	}
	if o.wrapFS != nil {
		fs = o.wrapFS(fs)
	}

	vcfg := vfs.DefaultConfig()
	vcfg.CacheBytes = cacheBytes
	vcfg.Concurrent = o.concurrent
	if o.tr != nil {
		o.tr.begin(layerVFS, "mount")
	}
	s.mount = vfs.NewMount(env, fs, vcfg)
	if o.tr != nil {
		o.tr.end()
	}
	return s, nil
}

func (s *stack) simNow() int64      { return int64(s.env.Now()) }
func (s *stack) snapshot() snapshot { return s.env.Metrics.Snapshot() }
func (s *stack) devBusyNs() int64   { return int64(s.raw.Stats().BusyTime) }
func (s *stack) close()             { s.env.Pool.Close() }

// mergeDiff returns how far the registry's counters moved from a to b,
// and adds the whole movement into acc when there is one.
func mergeDiff(acc *snapshot, a, b snapshot) map[string]int64 {
	d := metrics.Diff(a, b)
	if acc != nil {
		acc.Merge(d)
	}
	return d.Counters
}

// engineIO reports the traced engine's storage traffic by backing file.
func (s *stack) engineIO() map[string]int64 {
	out := map[string]int64{}
	for name, f := range s.backend.files {
		out[name+".write_bytes"] = f.writeBytes
		out[name+".read_bytes"] = f.readBytes
		out[name+".flushes"] = f.flushes
	}
	return out
}

// flatten turns a snapshot into name -> value: counters by name,
// histograms as name.count, name.sum, name.max, name.p50 and name.p99.
func flatten(s snapshot) map[string]int64 {
	out := make(map[string]int64, len(s.Counters)+5*len(s.Histograms))
	for n, v := range s.Counters {
		out[n] = v
	}
	for n, h := range s.Histograms {
		out[n+".count"] = h.Count
		out[n+".sum"] = h.Sum
		out[n+".max"] = h.Max
		out[n+".p50"] = h.Quantile(0.50)
		out[n+".p99"] = h.Quantile(0.99)
	}
	return out
}

// ---- tracing decorators at the four interface seams ----

// pageMap tracks which 4 KiB device pages hold data: written and not
// since discarded.
type pageMap []uint64

func (m pageMap) markWritten(off int64, n int) {
	for p := off / pageSize; p <= (off+int64(n)-1)/pageSize; p++ {
		m[p/64] |= 1 << uint(p%64)
	}
}

func (m pageMap) markDiscarded(off, length int64) {
	for p := (off + pageSize - 1) / pageSize; (p+1)*pageSize <= off+length; p++ {
		m[p/64] &^= 1 << uint(p%64)
	}
}

func (m pageMap) bytes() int64 {
	var pages int
	for _, w := range m {
		pages += bits.OnesCount64(w)
	}
	return int64(pages) * pageSize
}

// seamFS decorates the vfs.FS seam: span runs as each call into the file
// system begins, and what it returns runs as the call ends. Everything
// below this seam, down to the betree.Backend seam, is the "engine" layer.
type seamFS struct {
	vfs.FS
	span func(op string) (end func())
}

func (f *seamFS) Lookup(parent vfsHandle, name string) (vfsHandle, vfs.Attr, error) {
	defer f.span("lookup")()
	return f.FS.Lookup(parent, name)
}

func (f *seamFS) Create(parent vfsHandle, name string, dir bool) (vfsHandle, vfs.Attr, error) {
	defer f.span("create")()
	return f.FS.Create(parent, name, dir)
}

func (f *seamFS) Remove(parent vfsHandle, name string, h vfsHandle, dir bool) error {
	defer f.span("remove")()
	return f.FS.Remove(parent, name, h, dir)
}

func (f *seamFS) Rename(op vfsHandle, on string, h vfsHandle, np vfsHandle, nn string) (vfsHandle, error) {
	defer f.span("rename")()
	return f.FS.Rename(op, on, h, np, nn)
}

func (f *seamFS) ReadDir(h vfsHandle) ([]dirEntry, error) {
	defer f.span("readdir")()
	return f.FS.ReadDir(h)
}

func (f *seamFS) WriteAttr(h vfsHandle, a vfs.Attr) error {
	defer f.span("write_attr")()
	return f.FS.WriteAttr(h, a)
}

func (f *seamFS) ReadBlocks(h vfsHandle, blk int64, pages []*vfsPage, seq bool) error {
	defer f.span("read_blocks")()
	return f.FS.ReadBlocks(h, blk, pages, seq)
}

func (f *seamFS) WriteBlocks(h vfsHandle, blk int64, pgs []*vfsPage, durable bool) error {
	defer f.span("write_blocks")()
	return f.FS.WriteBlocks(h, blk, pgs, durable)
}

func (f *seamFS) WritePartial(h vfsHandle, blk int64, off int, data []byte, durable bool) error {
	defer f.span("write_partial")()
	return f.FS.WritePartial(h, blk, off, data, durable)
}

func (f *seamFS) TruncateBlocks(h vfsHandle, fromBlk int64) error {
	defer f.span("truncate_blocks")()
	return f.FS.TruncateBlocks(h, fromBlk)
}

func (f *seamFS) Fsync(h vfsHandle) error {
	defer f.span("fsync")()
	return f.FS.Fsync(h)
}

func (f *seamFS) Sync() error {
	defer f.span("sync")()
	return f.FS.Sync()
}

func (f *seamFS) Maintain() {
	defer f.span("maintain")()
	f.FS.Maintain()
}

func (f *seamFS) DropCaches() {
	defer f.span("drop_caches")()
	f.FS.DropCaches()
}

// tracedBackend spans the betree.Backend seam: the SFL's files.
type tracedBackend struct {
	inner betree.Backend
	tr    *tracer
	files map[string]*tracedFile
}

func (b *tracedBackend) File(name string) stor.File {
	if f, ok := b.files[name]; ok {
		return f
	}
	f := &tracedFile{File: b.inner.File(name), tr: b.tr}
	b.files[name] = f
	return f
}

// tracedFile also counts the engine's storage traffic to its one backing
// file, over the measured phases.
type tracedFile struct {
	stor.File
	tr *tracer

	writeBytes, readBytes, flushes int64
}

func (f *tracedFile) count(field *int64, n int) {
	if f.tr.measured {
		*field += int64(n)
	}
}

func (f *tracedFile) ReadAt(p []byte, off int64) error {
	f.count(&f.readBytes, len(p))
	f.tr.begin(layerSFL, "read")
	defer f.tr.end()
	return f.File.ReadAt(p, off)
}

func (f *tracedFile) WriteAt(p []byte, off int64) error {
	f.count(&f.writeBytes, len(p))
	f.tr.begin(layerSFL, "write")
	defer f.tr.end()
	return f.File.WriteAt(p, off)
}

// An asynchronous I/O is two spans, the submit and the wait; the wait's
// time lands on whichever layer is innermost when the clock advances.
func (f *tracedFile) SubmitRead(p []byte, off int64) stor.Wait {
	f.count(&f.readBytes, len(p))
	f.tr.begin(layerSFL, "submit_read")
	w := f.File.SubmitRead(p, off)
	f.tr.end()
	return f.wait(w)
}

func (f *tracedFile) SubmitWrite(p []byte, off int64) stor.Wait {
	f.count(&f.writeBytes, len(p))
	f.tr.begin(layerSFL, "submit_write")
	w := f.File.SubmitWrite(p, off)
	f.tr.end()
	return f.wait(w)
}

func (f *tracedFile) wait(w stor.Wait) stor.Wait {
	return func() error {
		f.tr.begin(layerSFL, "wait")
		defer f.tr.end()
		return w()
	}
}

func (f *tracedFile) Flush() error {
	f.count(&f.flushes, 1)
	f.tr.begin(layerSFL, "flush")
	defer f.tr.end()
	return f.File.Flush()
}

func (f *tracedFile) Discard(off, length int64) error {
	f.tr.begin(layerSFL, "discard")
	defer f.tr.end()
	return f.File.Discard(off, length)
}

// tracedDev spans a blockdev.Device seam: once above the FTL (layer ftl)
// and once above the raw device (layer blockdev, which also tracks mapped
// pages through io).
type tracedDev struct {
	blockdev.Device
	tr     *tracer
	layer  layer
	mapped pageMap // raw device only
}

func (d *tracedDev) ReadAt(p []byte, off int64) error {
	d.tr.begin(d.layer, "read")
	defer d.tr.end()
	return d.Device.ReadAt(p, off)
}

func (d *tracedDev) WriteAt(p []byte, off int64) error {
	if d.mapped != nil {
		d.mapped.markWritten(off, len(p))
	}
	d.tr.begin(d.layer, "write")
	defer d.tr.end()
	return d.Device.WriteAt(p, off)
}

func (d *tracedDev) SubmitRead(p []byte, off int64) blockdev.Completion {
	d.tr.begin(d.layer, "submit_read")
	defer d.tr.end()
	return d.Device.SubmitRead(p, off)
}

func (d *tracedDev) SubmitWrite(p []byte, off int64) blockdev.Completion {
	if d.mapped != nil {
		d.mapped.markWritten(off, len(p))
	}
	d.tr.begin(d.layer, "submit_write")
	defer d.tr.end()
	return d.Device.SubmitWrite(p, off)
}

func (d *tracedDev) Wait(c blockdev.Completion) error {
	d.tr.begin(d.layer, "wait")
	defer d.tr.end()
	return d.Device.Wait(c)
}

func (d *tracedDev) Flush() error {
	d.tr.begin(d.layer, "flush")
	defer d.tr.end()
	return d.Device.Flush()
}

func (d *tracedDev) Discard(off, length int64) error {
	if d.mapped != nil {
		d.mapped.markDiscarded(off, length)
	}
	d.tr.begin(d.layer, "discard")
	defer d.tr.end()
	return d.Device.Discard(off, length)
}

// ---- serve_mix: the wire stack ----

// wireCounts is what the traced serve_mix run counts from outside: host
// time inside the vfs.FS seam (the engine, under the mount lock) and the
// client connections' transport calls. Calls overlap here, hence atomics
// and no span stack.
type wireCounts struct {
	EngineHostNs atomic.Int64
	ClientWrites atomic.Int64
	ClientBytes  atomic.Int64 // both directions
}

// engineSpan is the seamFS span that adds a call's host time to the count.
func (c *wireCounts) engineSpan(string) func() {
	start := time.Now()
	return func() { c.EngineHostNs.Add(int64(time.Since(start))) }
}

// load reads the counters into the names trialResult.Wire uses.
func (c *wireCounts) load() map[string]int64 {
	return map[string]int64{
		"engine_host_ns": c.EngineHostNs.Load(),
		"client_writes":  c.ClientWrites.Load(),
		"client_bytes":   c.ClientBytes.Load(),
	}
}

// countConn counts a client connection's transport calls. The server end
// is not wrapped: its replies leave through net.Buffers, which bypasses
// Write on anything but the bare *net.TCPConn, so the server's write count
// comes from the registry (one fsserve.batch.replies sample per flush).
type countConn struct {
	net.Conn
	c *wireCounts
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.ClientBytes.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.ClientWrites.Add(1)
	c.c.ClientBytes.Add(int64(n))
	return n, err
}

// wireStack is a stack behind an fsserve server on a loopback listener.
type wireStack struct {
	*stack
	srv       *fsserve.Server
	ln        net.Listener
	transport string
	conns     sync.WaitGroup
	counts    *wireCounts // nil unless traced
}

// buildWireStack serves the stack over a loopback socket: with concurrent
// set as cmd/fsserved runs it by default (two workers over the concurrent
// stack), otherwise in the deterministic configuration (one worker over the
// single-goroutine stack, for clients that take turns).
func buildWireStack(concurrent, traced bool) (*wireStack, error) {
	w := &wireStack{}
	o := stackOpts{concurrent: concurrent}
	if traced {
		w.counts = &wireCounts{}
		o.wrapFS = func(fs vfsFS) vfsFS { return &seamFS{FS: fs, span: w.counts.engineSpan} }
	}
	s, err := buildStack(o)
	if err != nil {
		return nil, err
	}
	w.stack = s
	cfg := fsserve.DefaultConfig()
	if concurrent {
		cfg.Workers = 2
	}
	w.srv = fsserve.New(s.env, s.mount, cfg)

	if raceDetector {
		// The detector sees no ordering through a socket, so every call the
		// trial makes into the mount or the server after a round trip would
		// be reported. Under it dial hands out in-memory pipes, whose two
		// ends synchronise where it can see.
		w.transport = "pipe"
		return w, nil
	}
	w.transport = "tcp"
	w.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// Sandboxes without a loopback interface still have unix sockets.
		w.transport = "unix"
		if w.ln, err = net.Listen("unix", fmt.Sprintf("@betrfs-benchmark-%d", time.Now().UnixNano())); err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
	}
	w.conns.Add(1)
	go w.accept()
	return w, nil
}

// serve runs one connection's session on its own goroutine.
func (w *wireStack) serve(conn net.Conn) {
	w.conns.Add(1)
	go func() {
		defer w.conns.Done()
		// The error is the peer hanging up or the drain in stop; the
		// client side of the same connection reports anything real.
		_ = w.srv.ServeConn(conn)
	}()
}

func (w *wireStack) accept() {
	defer w.conns.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return // listener closed by stop
		}
		w.serve(conn)
	}
}

func (w *wireStack) dial() (*wireClient, error) {
	var conn net.Conn
	if w.ln == nil {
		var server net.Conn
		conn, server = net.Pipe()
		w.serve(server)
	} else {
		var err error
		if conn, err = net.Dial(w.ln.Addr().Network(), w.ln.Addr().String()); err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
	}
	if w.counts != nil {
		conn = &countConn{Conn: conn, c: w.counts}
	}
	return fsrpc.NewClient(conn), nil
}

// stop drains the server and waits for every goroutine it started.
func (w *wireStack) stop() {
	w.srv.Shutdown()
	if w.ln != nil {
		w.ln.Close()
	}
	w.conns.Wait()
	w.close()
}

// ---- layer drivers: each layer's public API called directly ----

// layerDriver is one direct-call microbenchmark: setup builds its state
// from the seed and returns the operation to time. cleanup may be nil.
type layerDriver struct {
	name  string
	setup func(seed uint64) (op func(i int) error, cleanup func(), err error)
}

// miniStack is the device half of the stack, for drivers below the engine.
func miniStack(scale int64) (*simEnv, *blockdev.Dev, *ftl.Dev, *sfl.SFL, error) {
	env := sim.NewEnv(1)
	raw := blockdev.New(env, blockdev.SamsungEVO860().Scale(scale))
	fdev := ftl.New(env, raw, ftl.DefaultConfig())
	files, err := sfl.NewDefault(env, fdev)
	return env, raw, fdev, files, err
}

func driverPaths(seed uint64, n int) []string {
	r := newRNG(seed, 100)
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("usr/d%03d/d%03d/f%07x", r.intn(128), r.intn(128), r.intn(1<<28))
	}
	return paths
}

const driverTreeKeys = 1 << 14

// openDriverTree opens a store with the workloads' tree configuration and
// loads driverTreeKeys keys of 200 bytes into its metadata index.
func openDriverTree(seed uint64) (*betree.Store, [][]byte, error) {
	env, _, _, files, err := miniStack(deviceScale)
	if err != nil {
		return nil, nil, err
	}
	cfg := betree.DefaultConfig()
	cfg.CacheBytes = cacheBytes
	st, err := betree.Open(env, kmem.New(env, true), cfg, files)
	if err != nil {
		return nil, nil, err
	}
	ks := make([][]byte, driverTreeKeys)
	val := make([]byte, 200)
	fill(val, seed)
	for i, p := range driverPaths(seed, len(ks)) {
		ks[i] = keys.MetaKey(p)
		if err := putKey(st, ks[i], val); err != nil {
			return nil, nil, err
		}
	}
	return st, ks, nil
}

// putKey is one insert as the northbound issues it: the message, then the
// checkpoint poll that keeps the log from filling.
func putKey(st *betree.Store, k, v []byte) error {
	if err := st.Meta().Put(k, v, betree.LogAuto); err != nil {
		return err
	}
	return st.MaybeCheckpoint()
}

var driverSink int // keeps results live so calls are not optimized away

func layerDrivers() []layerDriver {
	type opFn = func(int) error
	return []layerDriver{
		{"keys.encode", func(seed uint64) (opFn, func(), error) {
			paths := driverPaths(seed, 1024)
			return func(i int) error {
				driverSink += len(keys.Encode(paths[i%len(paths)]))
				return nil
			}, nil, nil
		}},
		{"kmem.alloc_free", func(seed uint64) (opFn, func(), error) {
			a := kmem.New(sim.NewEnv(1), true)
			r := newRNG(seed, 101)
			sizes := make([]int, 1024)
			for i := range sizes {
				sizes[i] = 64 << uint(r.intn(11)) // 64 B .. 64 KiB
			}
			return func(i int) error {
				a.FreeSized(a.Alloc(sizes[i%len(sizes)]))
				return nil
			}, nil, nil
		}},
		{"wal.append", func(seed uint64) (opFn, func(), error) {
			env, _, _, files, err := miniStack(deviceScale)
			if err != nil {
				return nil, nil, err
			}
			l := wal.New(env, files.File("log"), 1)
			payload := make([]byte, 200)
			fill(payload, seed)
			return func(i int) error {
				_, err := l.Append(1, payload)
				if errors.Is(err, wal.ErrLogFull) {
					// What a checkpoint does for the log: make it durable,
					// then release everything.
					if err = l.Flush(); err == nil {
						l.Reclaim(l.NextLSN())
						_, err = l.Append(1, payload)
					}
				}
				return err
			}, nil, nil
		}},
		{"betree.put", func(seed uint64) (opFn, func(), error) {
			st, ks, err := openDriverTree(seed)
			if err != nil {
				return nil, nil, err
			}
			val := make([]byte, 200)
			fill(val, seed+1)
			return func(i int) error { return putKey(st, ks[i%len(ks)], val) }, nil, nil
		}},
		{"betree.get", func(seed uint64) (opFn, func(), error) {
			st, ks, err := openDriverTree(seed)
			if err != nil {
				return nil, nil, err
			}
			return func(i int) error {
				v, ok, err := st.Meta().Get(ks[(i*7919)%len(ks)])
				if err == nil && !ok {
					err = errors.New("key not found")
				}
				driverSink += len(v)
				return err
			}, nil, nil
		}},
		{"betree.scan", func(seed uint64) (opFn, func(), error) {
			st, ks, err := openDriverTree(seed)
			if err != nil {
				return nil, nil, err
			}
			return func(i int) error {
				seen := 0
				err := st.Meta().Scan(ks[(i*7919)%len(ks)], nil, func(k, v []byte) bool {
					seen++
					return seen < 100
				})
				driverSink += seen
				return err
			}, nil, nil
		}},
		{"betree.delete_range", func(seed uint64) (opFn, func(), error) {
			st, _, err := openDriverTree(seed)
			if err != nil {
				return nil, nil, err
			}
			r := newRNG(seed, 102)
			ranges := make([][2][]byte, 1024)
			for i := range ranges {
				lo, hi := keys.ChildRange(fmt.Sprintf("usr/d%03d/d%03d", r.intn(128), r.intn(128)))
				ranges[i] = [2][]byte{lo, hi}
			}
			return func(i int) error {
				rg := ranges[i%len(ranges)]
				if err := st.Meta().DeleteRange(rg[0], rg[1], betree.LogAuto); err != nil {
					return err
				}
				return st.MaybeCheckpoint()
			}, nil, nil
		}},
		{"sfl.write", func(seed uint64) (opFn, func(), error) {
			_, _, _, files, err := miniStack(deviceScale)
			if err != nil {
				return nil, nil, err
			}
			f := files.File("data")
			buf := make([]byte, 64<<10)
			fill(buf, seed)
			slots := int(f.Capacity() / int64(len(buf)))
			return func(i int) error { return f.WriteAt(buf, int64(i%slots)*int64(len(buf))) }, nil, nil
		}},
		{"ftl.write_4k", func(seed uint64) (opFn, func(), error) {
			// A 15 MiB device, filled once, then overwritten at random:
			// past over-provisioning, so garbage collection runs.
			_, _, fdev, _, err := miniStack(deviceScale * 32)
			if err != nil {
				return nil, nil, err
			}
			op, err := randomWriter(fdev, seed, true)
			return op, nil, err
		}},
		{"blockdev.write_4k", func(seed uint64) (opFn, func(), error) {
			_, raw, _, _, err := miniStack(deviceScale * 32)
			if err != nil {
				return nil, nil, err
			}
			op, err := randomWriter(raw, seed, false)
			return op, nil, err
		}},
		{"fsrpc.codec", func(seed uint64) (opFn, func(), error) {
			data := make([]byte, pageSize)
			fill(data, seed)
			q := &fsrpc.Request{Op: fsrpc.OpWrite, Tag: 7, Handle: 3, Off: 8192, Data: data}
			r := &fsrpc.Reply{Op: fsrpc.OpRead, Tag: 7, Data: data}
			return func(i int) error {
				q2, err := fsrpc.DecodeRequest(q.Encode())
				if err != nil {
					return err
				}
				r2, err := fsrpc.DecodeReply(r.Encode())
				if err != nil {
					return err
				}
				driverSink += len(q2.Data) + len(r2.Data)
				return nil
			}, nil, nil
		}},
		{"fsrpc.frame_parts", func(seed uint64) (opFn, func(), error) {
			data := make([]byte, pageSize)
			fill(data, seed)
			r := &fsrpc.Reply{Op: fsrpc.OpRead, Tag: 7, Data: data}
			scratch := make([]byte, 0, 64)
			return func(i int) error {
				segs, _, err := r.FrameParts(scratch)
				driverSink += len(segs)
				return err
			}, nil, nil
		}},
		{"fsserve.roundtrip", func(seed uint64) (opFn, func(), error) {
			s, err := buildStack(stackOpts{})
			if err != nil {
				return nil, nil, err
			}
			f, err := s.mount.Create("probe")
			if err != nil {
				return nil, nil, err
			}
			f.Close()
			srv := fsserve.New(s.env, s.mount, fsserve.DefaultConfig())
			cEnd, sEnd := net.Pipe()
			done := make(chan struct{})
			go func() {
				defer close(done)
				_ = srv.ServeConn(sEnd) // ends when cleanup closes the client
			}()
			cli := fsrpc.NewClient(cEnd)
			return func(i int) error {
					_, err := cli.Getattr("probe")
					return err
				}, func() {
					cli.Close()
					srv.Shutdown()
					<-done
					s.close()
				}, nil
		}},
		{"metrics.observe", func(seed uint64) (opFn, func(), error) {
			h := metrics.NewRegistry().Histogram("bench.observe", "ns")
			return func(i int) error {
				h.Observe(int64(i))
				return nil
			}, nil, nil
		}},
	}
}

// randomWriter returns an op that overwrites one random 4 KiB page of dev,
// after filling dev once when prefill is set.
func randomWriter(dev blockdev.Device, seed uint64, prefill bool) (func(int) error, error) {
	buf := make([]byte, pageSize)
	fill(buf, seed)
	pages := dev.Size() / pageSize
	if prefill {
		for p := int64(0); p < pages; p++ {
			if err := dev.WriteAt(buf, p*pageSize); err != nil {
				return nil, err
			}
		}
	}
	r := newRNG(seed, 103)
	offs := make([]int64, 4096)
	for i := range offs {
		offs[i] = r.intn(pages) * pageSize
	}
	return func(i int) error { return dev.WriteAt(buf, offs[i%len(offs)]) }, nil
}
