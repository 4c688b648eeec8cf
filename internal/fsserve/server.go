// Package fsserve is the serving half of the network file-service layer
// (DESIGN.md §11): it mounts any of the simulated file systems behind the
// fsrpc wire protocol and serves N concurrent client connections with
// per-session handle tables, a bounded worker pool with admission control
// and backpressure, per-request queue-wait deadlines, and graceful drain
// on shutdown.
//
// Admission control is strictly non-blocking: a connection reader never
// waits for queue space. When the bounded request queue is full the
// request is shed immediately with EBUSY (`fsserve.queue.shed`), so a
// saturated server degrades by rejecting load instead of building an
// unbounded backlog or deadlocking. The queue depth is visible as the
// `fsserve.queue.depth` gauge; requests that waited in the queue longer
// than Config.QueueWait are shed at dequeue time (`fsserve.deadline.shed`)
// — the client already gave up on them, executing them would only burn
// capacity.
//
// Execution is pipelined per connection (DESIGN.md §13.5): requests from
// one session may complete out of order — reads overlap freely — while
// mutating ops stay ordered via per-class chains (WRITE/FSYNC per handle,
// path-mutating ops on one namespace chain). Replies are staged to a
// per-session writer goroutine that flushes whole batches in one
// scatter-gather write, with READ payloads passed by reference from the
// pooled device buffer into the frame (no intermediate copy).
//
// With Workers == 1 and a single synchronous client driver the server is
// deterministic: requests execute in arrival order on one goroutine, so
// simulated results (and the serve benchmark's latency percentiles) are
// bit-identical run to run at a fixed seed. With more workers, ops overlap
// and the shared simulated clock makes results throughput-style numbers,
// exactly like the §9 multi-client mode.
package fsserve

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"time"

	"betrfs/internal/blockdev"
	"betrfs/internal/fsrpc"
	"betrfs/internal/metrics"
	"betrfs/internal/registry"
	"betrfs/internal/sim"
	"betrfs/internal/vfs"
)

// Config tunes the server.
type Config struct {
	// Workers is the number of goroutines executing requests. 1 (the
	// default) is the deterministic mode.
	Workers int
	// QueueDepth bounds the admission queue shared by all sessions;
	// requests arriving on a full queue are shed with EBUSY. Default 64.
	QueueDepth int
	// QueueWait is the wall-clock deadline a request may spend queued
	// before being shed unexecuted. Zero disables the deadline (the
	// deterministic configuration).
	QueueWait time.Duration
	// MaxHandles bounds each session's open-file table; the oldest handle
	// is evicted (closed) beyond it. Default 128.
	MaxHandles int
	// OnExecute, when set, runs at the top of every execute call, before
	// the op takes an execution slot or touches the mount. It exists for
	// instrumentation and for the saturation/drain tests, which use it to
	// park the worker deterministically. Leave nil in production.
	OnExecute func(op fsrpc.Op)
	// SessionLease is how long a named session (HELLO, DESIGN.md §13.9)
	// survives without traffic: a detached session idle past the lease is
	// expired — its handle table closes and a later HELLO with its token
	// gets ESTALE. Zero (the default) disables expiry; sessions attached
	// to a live connection never expire regardless. Wall-clock, like
	// QueueWait.
	SessionLease time.Duration
	// DRCEntries bounds each named session's duplicate-reply cache: the
	// replies of the last DRCEntries completed mutations are retained so a
	// client replay after a reconnect is answered from cache instead of
	// re-executed. Must exceed the client window or a slow replay can fall
	// past the horizon (ERETIRED). Default 256.
	DRCEntries int
	// LeaseNow replaces time.Now for lease bookkeeping. Tests use it to
	// expire sessions deterministically; leave nil in production.
	LeaseNow func() time.Time
	// Registry names the shares this server exports (DESIGN.md §14.2):
	// mount shares a client ATTACHes to and block shares a client BOPENs.
	// Nil leaves the server single-mount (BOPEN/ATTACH answer ENOENT and
	// SHARES lists nothing), which is every pre-§14 deployment.
	Registry *registry.Registry
}

// DefaultConfig returns the deterministic single-worker configuration.
func DefaultConfig() Config {
	return Config{}.withDefaults()
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.MaxHandles < 1 {
		c.MaxHandles = 128
	}
	if c.DRCEntries < 1 {
		c.DRCEntries = 256
	}
	return c
}

// serveMetrics holds the registry instruments, resolved at New.
type serveMetrics struct {
	reqCount      *metrics.Counter
	reqBytes      *metrics.Counter
	respBytes     *metrics.Counter
	statusErr     *metrics.Counter
	opCount       *metrics.Counter
	opPanic       *metrics.Counter
	queueDepth    *metrics.Gauge
	queueShed     *metrics.Counter
	deadline      *metrics.Counter
	sessions      *metrics.Gauge
	drain         *metrics.Counter
	opNs          *metrics.Histogram
	inflight      *metrics.Gauge     // fsrpc.inflight: admitted, not yet replied
	pipeDepth     *metrics.Histogram // fsrpc.pipeline.depth: per-session outstanding at admission
	batchReplies  *metrics.Histogram // fsserve.batch.replies: replies per writer flush
	zerocopyBytes *metrics.Counter   // fsserve.zerocopy.bytes: READ payload bytes framed by reference
	sessResume    *metrics.Counter   // fsserve.session.resume: HELLO(token) re-attachments
	sessExpire    *metrics.Counter   // fsserve.session.expire: named sessions expired/discarded
	drcHit        *metrics.Counter   // fsserve.drc.hit: replayed mutations answered from cache
	drcMiss       *metrics.Counter   // fsserve.drc.miss: sequenced mutations executed and cached
	drcEvict      *metrics.Counter   // fsserve.drc.evict: cache entries retired past the horizon
	perOp         [32]*metrics.Counter
}

func resolveServeMetrics(reg *metrics.Registry) serveMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := serveMetrics{
		reqCount:      reg.Counter("fsrpc.req.count"),
		reqBytes:      reg.Counter("fsrpc.req.bytes"),
		respBytes:     reg.Counter("fsrpc.resp.bytes"),
		statusErr:     reg.Counter("fsrpc.status.err"),
		opCount:       reg.Counter("fsserve.op.count"),
		opPanic:       reg.Counter("fsserve.op.panic"),
		queueDepth:    reg.Gauge("fsserve.queue.depth"),
		queueShed:     reg.Counter("fsserve.queue.shed"),
		deadline:      reg.Counter("fsserve.deadline.shed"),
		sessions:      reg.Gauge("fsserve.session.open"),
		drain:         reg.Counter("fsserve.drain.count"),
		opNs:          reg.Histogram("fsserve.op.ns", "ns"),
		inflight:      reg.Gauge("fsrpc.inflight"),
		pipeDepth:     reg.Histogram("fsrpc.pipeline.depth", "reqs"),
		batchReplies:  reg.Histogram("fsserve.batch.replies", "replies"),
		zerocopyBytes: reg.Counter("fsserve.zerocopy.bytes"),
		sessResume:    reg.Counter("fsserve.session.resume"),
		sessExpire:    reg.Counter("fsserve.session.expire"),
		drcHit:        reg.Counter("fsserve.drc.hit"),
		drcMiss:       reg.Counter("fsserve.drc.miss"),
		drcEvict:      reg.Counter("fsserve.drc.evict"),
	}
	for _, op := range fsrpc.Ops {
		m.perOp[op] = reg.Counter("fsserve.op." + op.String())
	}
	return m
}

// server lifecycle states.
const (
	stateServing = iota
	stateDraining
	stateClosed
)

// task is one admitted request awaiting a worker, plus its position in
// the session's ordering chain (DESIGN.md §13.5) when the op has one.
type task struct {
	sess     *session
	req      *fsrpc.Request
	enqueued time.Time

	chainKeys [2]uint64
	nchains   int
	prev      [2]chan struct{} // predecessors' done; nil at a chain head
	done      chan struct{}    // closed once this task's turn is over
}

// Server serves fsrpc requests against one vfs.Mount.
type Server struct {
	env   *sim.Env
	mount *vfs.Mount
	cfg   Config
	m     serveMetrics

	queue chan *task
	// gate bounds how many requests execute against the mount at once,
	// across the worker pool and the session readers, to GOMAXPROCS. The
	// mount big lock serializes the FS work regardless, so more would buy
	// no overlap — only pile waiters onto the mutex, whose barging
	// hand-off lets an unlucky request wait out the full 1ms starvation
	// threshold under load. A channel semaphore queues waiters FIFO, so
	// the execution tail is bounded by queue depth instead. Chain waits
	// happen before the gate, so a slot is never held by a request
	// waiting on a predecessor.
	gate     chan struct{}
	workerWG sync.WaitGroup
	inflight sync.WaitGroup

	mu       sync.Mutex
	state    int
	sessions map[*session]struct{}
	named    map[string]*sessState // resumable sessions by token (§13.9)
	tokenSeq uint64

	janitorStop chan struct{} // closes at Shutdown; nil without a lease
}

// New starts a server over mount with cfg.Workers request workers. The
// mount must be built with vfs.Config.Concurrent (and a concurrent FS
// beneath it) when Workers > 1 or multiple connections are served.
// mount is the default share every session starts attached to; it may be
// nil for a block-only storage node (cfg.Registry exporting block
// shares), in which case file-class ops answer ENOENT until the client
// ATTACHes a mount share.
func New(env *sim.Env, mount *vfs.Mount, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		env:      env,
		mount:    mount,
		cfg:      cfg,
		m:        resolveServeMetrics(env.Metrics),
		queue:    make(chan *task, cfg.QueueDepth),
		gate:     make(chan struct{}, runtime.GOMAXPROCS(0)),
		sessions: make(map[*session]struct{}),
		named:    make(map[string]*sessState),
	}
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if cfg.SessionLease > 0 {
		period := cfg.SessionLease / 4
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		s.janitorStop = make(chan struct{})
		go s.janitor(period)
	}
	return s
}

// Mount returns the served mount (tests poke at it directly).
func (s *Server) Mount() *vfs.Mount { return s.mount }

// ServeConn serves one client connection until the peer closes it, a
// protocol error tears it down, or the server shuts down. It blocks;
// callers run it on a goroutine per connection.
func (s *Server) ServeConn(rw io.ReadWriteCloser) error {
	sess := newSession(s, rw)
	s.mu.Lock()
	if s.state != stateServing {
		s.mu.Unlock()
		rw.Close()
		return fsrpc.ErrShutdown
	}
	s.sessions[sess] = struct{}{}
	s.m.sessions.Add(1)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if _, ok := s.sessions[sess]; ok {
			delete(s.sessions, sess)
			s.m.sessions.Add(-1)
		}
		s.detachLocked(sess)
		s.mu.Unlock()
		sess.close()
	}()

	for {
		payload, err := fsrpc.ReadFrame(rw)
		if err != nil {
			if err == io.EOF || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			if errors.Is(err, fsrpc.ErrProto) {
				return err
			}
			return nil // transport torn down (shutdown or peer reset)
		}
		s.m.reqCount.Inc()
		s.m.reqBytes.Add(int64(len(payload)))
		req, err := fsrpc.DecodeRequest(payload)
		if err != nil {
			// The stream cannot be resynchronized after a malformed
			// frame; reply EPROTO best-effort and tear down.
			sess.sendReply(&fsrpc.Reply{Op: 0, Tag: 0, Status: fsrpc.StatusProto}, nil, nil)
			sess.flush()
			return err
		}
		if s.cfg.SessionLease > 0 {
			sess.touch(s.now())
		}
		var st fsrpc.Status
		if _, n := chainKeys(req); n == 0 {
			st = s.serveDirect(sess, req)
		} else if st = s.admit(&task{sess: sess, req: req, enqueued: time.Now()}); st == fsrpc.StatusBusy {
			s.m.queueShed.Inc()
		}
		if st != fsrpc.StatusOK {
			s.m.statusErr.Inc()
			sess.sendReply(&fsrpc.Reply{Op: req.Op, Tag: req.Tag, Status: st}, nil, nil)
		}
	}
}

// serveDirect executes a chainless (read-class) request on the calling
// session reader goroutine and stages its reply:
// LOOKUP/GETATTR/READ/READDIR/STATFS skip the queue handoff and reply from
// the goroutine that decoded them. §13.5 already allows reads to complete
// out of order relative to queued mutations, so the only cost is that
// reads from one session do not overlap each other — in exchange every
// read saves two scheduler handoffs, which dominates small-op latency.
// Mutations stay in the worker pool on purpose: they are the expensive op
// class, and executing them on the reader would head-of-line block every
// other request multiplexed on the connection behind one slow commit.
// Backpressure still exists: the reader cannot read ahead while
// executing, so a read-heavy session is limited to one direct op in
// flight.
//
// Accounting mirrors admit/worker exactly — the inflight count is raised
// under the state lock so Shutdown's drain barrier cannot miss it, and
// the pipeline-depth sample and gauge decrements are identical — so the
// metric catalog cannot tell direct ops from pooled ones except through
// fsserve.queue.depth, which direct ops never touch.
func (s *Server) serveDirect(sess *session, req *fsrpc.Request) fsrpc.Status {
	s.mu.Lock()
	if s.state != stateServing {
		s.mu.Unlock()
		return fsrpc.StatusShutdown
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	s.m.inflight.Add(1)
	s.m.pipeDepth.Observe(sess.outstanding.Add(1))
	rep, data := s.execute(sess, req)
	if rep.Status != fsrpc.StatusOK {
		s.m.statusErr.Inc()
	}
	// The depth ledger drops before the reply frame is written, not in the
	// post-flush callback: a synchronous client's next request arrives
	// right after the flush, and sampling it against a not-yet-decremented
	// counter would race the writer goroutine (nondeterministic
	// fsrpc.pipeline.depth histograms on deterministic workloads).
	sess.outstanding.Add(-1)
	sess.sendReply(rep, data, func() {
		s.m.inflight.Add(-1)
		s.inflight.Done()
	})
	return fsrpc.StatusOK
}

// admit places t on the bounded queue without ever blocking: a full queue
// sheds with EBUSY, a draining server rejects with ESHUTDOWN. The
// inflight count is raised under the state lock so Shutdown's drain
// barrier cannot miss an admitted request. An admitted task is linked
// into its session ordering chain before it is enqueued (the session
// reader calls admit serially, so chain order equals wire order), and the
// session's outstanding depth is sampled into fsrpc.pipeline.depth.
func (s *Server) admit(t *task) fsrpc.Status {
	s.mu.Lock()
	if s.state != stateServing {
		s.mu.Unlock()
		return fsrpc.StatusShutdown
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	t.sess.link(t)
	// Count the request outstanding before a worker can see it: a worker
	// may execute and reply (decrementing the count) before this goroutine
	// runs again, and a depth taken after that would read one short.
	depth := t.sess.outstanding.Add(1)
	select {
	case s.queue <- t:
		s.m.queueDepth.Add(1)
		s.m.inflight.Add(1)
		s.m.pipeDepth.Observe(depth)
		return fsrpc.StatusOK
	default:
		t.sess.outstanding.Add(-1)
		t.sess.unlink(t)
		s.inflight.Done()
		return fsrpc.StatusBusy
	}
}

// worker executes admitted requests in queue order, subject to the
// per-session ordering chains: a chained task (WRITE/FSYNC on a handle,
// path-mutating ops) waits for its predecessor's turn to end before
// executing, so pipelined mutations apply in issue order while reads
// from the same session overlap freely. Chains cannot deadlock the
// bounded pool: admission order equals queue order, so the earliest
// unfinished chained task's predecessor has always already been dequeued.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.queue {
		s.m.queueDepth.Add(-1)
		for i := 0; i < t.nchains; i++ {
			if t.prev[i] != nil {
				<-t.prev[i]
			}
		}
		var rep *fsrpc.Reply
		var data *[]byte
		if s.cfg.QueueWait > 0 && time.Since(t.enqueued) > s.cfg.QueueWait {
			// The request outlived its queue-wait budget; shed it
			// unexecuted rather than burn capacity on a reply the client
			// has given up on.
			s.m.deadline.Inc()
			rep = &fsrpc.Reply{Op: t.req.Op, Tag: t.req.Tag, Status: fsrpc.StatusBusy}
		} else {
			rep, data = s.execute(t.sess, t.req)
		}
		t.sess.finishChain(t)
		if rep.Status != fsrpc.StatusOK {
			s.m.statusErr.Inc()
		}
		sess := t.sess
		// Decrement before the write for the same reason as serveDirect:
		// the next synchronous request must never sample a stale depth.
		sess.outstanding.Add(-1)
		sess.sendReply(rep, data, func() {
			s.m.inflight.Add(-1)
			s.inflight.Done()
		})
	}
}

// Quiesce blocks until every admitted request has been replied to and
// its reply-side accounting (fsrpc.resp.bytes, fsserve.batch.replies,
// the fsrpc.inflight gauge) has landed in the registry. A client's call
// completes when the reply frame crosses the transport, which is before
// the serving goroutine runs that accounting — so a snapshot taken the
// moment the last call returns can catch the counters mid-update.
// Callers that snapshot a live server (the shard rung) quiesce first;
// Shutdown subsumes this via its own drain barrier. Only meaningful once
// the driver is idle: a concurrent client can re-raise the count.
func (s *Server) Quiesce() {
	s.inflight.Wait()
}

// Shutdown drains the server gracefully: new requests (and new
// connections) are rejected with ESHUTDOWN, every already-admitted
// request executes to completion and its reply is delivered, then the
// workers stop and every session is closed.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.state != stateServing {
		s.mu.Unlock()
		return
	}
	s.state = stateDraining
	s.m.drain.Inc()
	s.mu.Unlock()

	s.inflight.Wait() // every admitted request replied
	close(s.queue)
	s.workerWG.Wait()
	if s.janitorStop != nil {
		close(s.janitorStop)
	}

	s.mu.Lock()
	s.state = stateClosed
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = make(map[*session]struct{})
	named := make([]*sessState, 0, len(s.named))
	for _, st := range s.named {
		st.cur = nil
		named = append(named, st)
	}
	s.named = make(map[string]*sessState)
	s.m.sessions.Set(0)
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.close()
	}
	for _, st := range named {
		st.closeHandles()
	}
}

// execute runs one request, routing sequenced mutations through the
// session's duplicate-reply cache (DESIGN.md §13.9): a replayed sequence
// is answered from cache (fsserve.drc.hit) — waiting out the original
// execution if it is still in flight on another worker — instead of being
// applied twice; a sequence evicted past the cache horizon is refused
// with ERETIRED. Unsequenced requests (anonymous sessions, read-class
// ops) execute directly.
func (s *Server) execute(sess *session, q *fsrpc.Request) (rep *fsrpc.Reply, data *[]byte) {
	if q.Seq == 0 || !q.Op.Mutating() {
		return s.executeOp(sess, q)
	}
	st := sess.state()
	if st.tok() == "" {
		// Sequenced request on an anonymous session: nothing to dedup
		// against; execute like a legacy request.
		return s.executeOp(sess, q)
	}
	verdict, cached, entry := st.drc.begin(q.Seq)
	switch verdict {
	case drcHit:
		s.m.drcHit.Inc()
		cp := *cached
		cp.Op, cp.Tag = q.Op, q.Tag
		return &cp, nil
	case drcRetired:
		return &fsrpc.Reply{Op: q.Op, Tag: q.Tag, Status: fsrpc.StatusRetired}, nil
	}
	rep, data = s.executeOp(sess, q)
	s.m.drcMiss.Inc()
	if n := st.drc.commit(q.Seq, entry, rep); n > 0 {
		s.m.drcEvict.Add(n)
	}
	return rep, data
}

// executeOp runs one request against the mount and builds its reply. A
// panic from the FS stack (a programmer invariant, never a hardware
// fault — those arrive as errors) is converted to an EIO reply and
// counted, so one broken op cannot wedge every client of the server.
//
// data is the pooled buffer a successful READ reply's Data references;
// the caller must route it to sendReply so it returns to the pool after
// the frame is written. Nil for every other reply.
func (s *Server) executeOp(sess *session, q *fsrpc.Request) (rep *fsrpc.Reply, data *[]byte) {
	rep = &fsrpc.Reply{Op: q.Op, Tag: q.Tag}
	defer func() {
		if r := recover(); r != nil {
			s.m.opPanic.Inc()
			rep = &fsrpc.Reply{Op: q.Op, Tag: q.Tag, Status: fsrpc.StatusIO}
			data = nil
		}
	}()
	if s.cfg.OnExecute != nil {
		s.cfg.OnExecute(q.Op)
	}
	s.gate <- struct{}{}
	defer func() { <-s.gate }()
	s.m.opCount.Inc()
	if c := s.m.perOp[q.Op]; c != nil {
		c.Inc()
	}
	start := s.env.Now()
	defer func() { s.m.opNs.Observe(int64(s.env.Now() - start)) }()

	fail := func(err error) (*fsrpc.Reply, *[]byte) {
		rep.Status = fsrpc.StatusOf(err)
		return rep, nil
	}
	invalid := func() (*fsrpc.Reply, *[]byte) {
		rep.Status = fsrpc.StatusInval
		return rep, nil
	}
	mnt := sess.mount()
	if mnt == nil && fileClassOp(q.Op) {
		// Block-only storage node (or no mount share attached): the file
		// namespace does not exist here.
		return fail(vfs.ErrNotExist)
	}
	switch q.Op {
	case fsrpc.OpLookup:
		a, err := mnt.Stat(q.Path)
		if err != nil {
			return fail(err)
		}
		rep.Attr = fsrpc.FromVFS(a)
		if !a.Dir && q.Flags&fsrpc.LookupOpen != 0 {
			f, err := mnt.Open(q.Path)
			if err != nil {
				return fail(err)
			}
			rep.Handle = sess.put(f)
		}
	case fsrpc.OpGetattr:
		a, err := mnt.Stat(q.Path)
		if err != nil {
			return fail(err)
		}
		rep.Attr = fsrpc.FromVFS(a)
	case fsrpc.OpCreate:
		f, err := mnt.Create(q.Path)
		if err != nil {
			return fail(err)
		}
		a, err := mnt.Stat(q.Path)
		if err != nil {
			return fail(err)
		}
		rep.Handle = sess.put(f)
		rep.Attr = fsrpc.FromVFS(a)
	case fsrpc.OpRead:
		f, ok := sess.get(q.Handle)
		if !ok {
			return fail(fsrpc.ErrBadHandle)
		}
		// Pooled buffer, filled by the device and referenced (not copied)
		// by the reply frame; the session writer returns it to the pool
		// once the frame is on the wire.
		bufp := readBufPool.Get().(*[]byte)
		n, err := f.ReadAt((*bufp)[:q.N], q.Off)
		if err != nil {
			readBufPool.Put(bufp)
			return fail(err)
		}
		rep.Data = (*bufp)[:n]
		data = bufp
	case fsrpc.OpWrite:
		f, ok := sess.get(q.Handle)
		if !ok {
			return fail(fsrpc.ErrBadHandle)
		}
		n, err := f.WriteAt(q.Data, q.Off)
		if err != nil {
			return fail(err)
		}
		rep.N = uint32(n)
	case fsrpc.OpFsync:
		f, ok := sess.get(q.Handle)
		if !ok {
			return fail(fsrpc.ErrBadHandle)
		}
		if err := f.Fsync(); err != nil {
			return fail(err)
		}
	case fsrpc.OpMkdir:
		if err := mnt.Mkdir(q.Path); err != nil {
			return fail(err)
		}
	case fsrpc.OpUnlink:
		if err := mnt.Remove(q.Path); err != nil {
			return fail(err)
		}
	case fsrpc.OpRmdir:
		if err := mnt.Rmdir(q.Path); err != nil {
			return fail(err)
		}
	case fsrpc.OpRename:
		if err := mnt.Rename(q.Path, q.Path2); err != nil {
			return fail(err)
		}
	case fsrpc.OpReaddir:
		ents, err := mnt.ReadDir(q.Path)
		if err != nil {
			return fail(err)
		}
		rep.Entries = make([]fsrpc.DirEnt, 0, len(ents))
		for _, e := range ents {
			rep.Entries = append(rep.Entries, fsrpc.DirEnt{Name: e.Name, Dir: e.Dir})
		}
	case fsrpc.OpStatfs:
		s.mu.Lock()
		sessions := int64(len(s.sessions))
		s.mu.Unlock()
		rep.Statfs = fsrpc.Statfs{
			BlockSize: vfs.PageSize,
			SimTimeNs: int64(s.env.Now()),
			Degraded:  mnt != nil && mnt.Degraded() != nil,
			Sessions:  sessions,
			OpsServed: s.m.opCount.Load(),
		}
	case fsrpc.OpBopen:
		var dev blockdev.Device
		if s.cfg.Registry != nil {
			dev = s.cfg.Registry.Device(q.Path)
		}
		if dev == nil {
			return fail(vfs.ErrNotExist)
		}
		rep.Handle = sess.bput(dev)
		rep.Size = dev.Size()
	case fsrpc.OpBread:
		dev, ok := sess.bget(q.Handle)
		if !ok {
			return fail(fsrpc.ErrBadHandle)
		}
		if !inDevice(dev, q.Off, int64(q.N)) {
			return invalid()
		}
		// Same pooled zero-copy path as READ: the device fills the buffer
		// and the reply frame references it.
		bufp := readBufPool.Get().(*[]byte)
		if err := dev.ReadAt((*bufp)[:q.N], q.Off); err != nil {
			readBufPool.Put(bufp)
			return fail(err)
		}
		rep.Data = (*bufp)[:q.N]
		data = bufp
	case fsrpc.OpBwrite:
		dev, ok := sess.bget(q.Handle)
		if !ok {
			return fail(fsrpc.ErrBadHandle)
		}
		if !inDevice(dev, q.Off, int64(len(q.Data))) {
			return invalid()
		}
		if err := dev.WriteAt(q.Data, q.Off); err != nil {
			return fail(err)
		}
		rep.N = uint32(len(q.Data))
	case fsrpc.OpBflush:
		dev, ok := sess.bget(q.Handle)
		if !ok {
			return fail(fsrpc.ErrBadHandle)
		}
		if err := dev.Flush(); err != nil {
			return fail(err)
		}
	case fsrpc.OpBdiscard:
		dev, ok := sess.bget(q.Handle)
		if !ok {
			return fail(fsrpc.ErrBadHandle)
		}
		if !inDevice(dev, q.Off, q.Len) {
			return invalid()
		}
		if err := dev.Discard(q.Off, q.Len); err != nil {
			return fail(err)
		}
	case fsrpc.OpAttach:
		var m *vfs.Mount
		if s.cfg.Registry != nil {
			m = s.cfg.Registry.Mount(q.Path)
		}
		if m == nil {
			return fail(vfs.ErrNotExist)
		}
		sess.mnt.Store(m)
	case fsrpc.OpShares:
		if s.cfg.Registry != nil {
			shares := s.cfg.Registry.Shares()
			rep.Entries = make([]fsrpc.DirEnt, 0, len(shares))
			for _, sh := range shares {
				rep.Entries = append(rep.Entries, fsrpc.DirEnt{Name: sh.Name, Dir: sh.Mount})
			}
		}
	case fsrpc.OpHello:
		rep = s.hello(sess, q)
	case fsrpc.OpPing:
		// Keepalive no-op: the lease was renewed at arrival.
	default:
		return fail(fsrpc.ErrProto)
	}
	return rep, data
}

// fileClassOp reports whether op operates on the session's attached
// mount (and therefore fails ENOENT on a block-only storage node).
// HELLO/PING/STATFS are sessionwide, ATTACH/SHARES are control-plane,
// and the block class goes to the session's block handles.
func fileClassOp(op fsrpc.Op) bool {
	switch op {
	case fsrpc.OpHello, fsrpc.OpPing, fsrpc.OpStatfs, fsrpc.OpAttach, fsrpc.OpShares:
		return false
	}
	return !op.Block()
}

// inDevice reports whether the wire range [off, off+n) lies inside dev.
// Block ops check it before touching the device, so a bad offset or
// length from the wire is EINVAL rather than a device panic; the sum is
// never formed, so it cannot overflow.
func inDevice(dev blockdev.Device, off, n int64) bool {
	return off >= 0 && n >= 0 && n <= dev.Size()-off
}
