package fsserve

import (
	"io"
	"net"
	"sync"
	"sync/atomic"

	"betrfs/internal/blockdev"
	"betrfs/internal/fsrpc"
	"betrfs/internal/vfs"
)

// readBufPool recycles MaxData-sized READ buffers: execute fills one
// straight from the file, the reply references it (no intermediate copy),
// and the session writer returns it after the frame hits the wire.
var readBufPool = sync.Pool{New: func() any {
	b := make([]byte, fsrpc.MaxData)
	return &b
}}

// hdrBufPool recycles reply header/payload scratch. For a zero-copy READ
// reply only the 18-byte frame header lands here; other replies encode
// their whole payload into it.
var hdrBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64)
	return &b
}}

// maxPendingReplies bounds the per-session outgoing reply queue. A
// producer (worker or session reader) blocks once the slow client's
// queue is full, so a client that stops reading backpressures the server.
const maxPendingReplies = 256

// outReply is one reply staged for the session writer: its frame (see
// fsrpc.Reply.Frame) plus the pooled buffers behind it and the completion
// callback to run once the write attempt is over.
type outReply struct {
	head []byte  // the frame, or a READ frame's header
	body []byte  // a READ frame's data, by reference; nil otherwise
	hdr  *[]byte // pooled scratch, holding head's buffer
	data *[]byte // pooled READ buffer body points into, if any
	done func()  // inflight/gauge accounting; runs exactly once
}

// appendSegs appends o's frame segments to segs.
func (o *outReply) appendSegs(segs net.Buffers) net.Buffers {
	if o.body == nil {
		return append(segs, o.head)
	}
	return append(segs, o.head, o.body)
}

// finish releases o's pooled buffers and runs its completion callback.
// wrote reports whether the frame actually reached the transport (byte
// accounting is skipped for replies dropped on a broken connection).
func (o *outReply) finish(srv *Server, wrote bool) {
	if wrote {
		srv.m.respBytes.Add(int64(len(o.head) + len(o.body)))
		if len(o.body) > 0 {
			srv.m.zerocopyBytes.Add(int64(len(o.body)))
		}
	}
	if o.hdr != nil {
		hdrBufPool.Put(o.hdr)
	}
	if o.data != nil {
		readBufPool.Put(o.data)
	}
	if o.done != nil {
		o.done()
	}
}

// session is one client connection's server-side state: the transport, a
// dedicated reply writer with batching, the per-class ordering chains for
// pipelined requests, and the bounded handle table.
//
// Replies are not written inline by workers. Each completed reply is
// framed into scatter-gather segments (READ payloads by reference —
// fsserve.zerocopy.bytes) and appended to the session's pending queue;
// the writer goroutine drains the whole queue in one net.Buffers flush
// (fsserve.batch.replies observes the batch size), so N pipelined
// completions cost one syscall-shaped write instead of N. The segment
// list of that flush is the session's own, reused from flush to flush.
//
// Handles are per-session open-file descriptions. The protocol has no
// RELEASE op; instead the table is a bounded cache — beyond
// Config.MaxHandles the oldest handle is closed and evicted, and a
// request naming an evicted handle gets EBADF (clients re-LOOKUP). This
// keeps a misbehaving client from pinning unbounded server memory while
// sparing well-behaved clients an extra round trip per file.
type session struct {
	srv *Server
	rw  io.ReadWriteCloser

	// rep is the session reader's reply, reused frame to frame: a direct
	// op's reply, and a refusal or shed; sendReply has framed it by the
	// time the reader reads on.
	rep fsrpc.Reply

	wmu        sync.Mutex
	wcond      *sync.Cond // pending gained replies, or closing
	wspace     *sync.Cond // writer drained pending / finished a write
	pending    []outReply
	writing    bool        // writer is mid-flush on a taken batch
	segs       net.Buffers // segments of the flush in progress; owned by whoever set writing
	wv         net.Buffers // segs as the flush consumes it
	wclosed    bool
	broken     bool // transport write failed; later replies are dropped
	writerDone chan struct{}

	// outstanding counts admitted-but-unreplied requests on this session;
	// sampled into fsrpc.pipeline.depth at each admission.
	outstanding atomic.Int64

	// chains holds the tail completion channel of each ordering chain
	// (per-handle for WRITE/FSYNC, one namespace chain for path-mutating
	// ops) so pipelined mutations execute in issue order even when reads
	// overtake them. See DESIGN.md §13.5.
	omu    sync.Mutex
	chains map[uint64]chan struct{}

	// st is the resumable state (handle table + duplicate-reply cache,
	// DESIGN.md §13.9): anonymous until HELLO names it, swapped atomically
	// when a HELLO promotes or resumes while other ops are in flight.
	st atomic.Pointer[sessState]

	// mnt is the mount the session's file-class ops run against: the
	// server's default mount until an ATTACH rebinds it to a registry
	// mount share (DESIGN.md §14.2). Nil on a block-only storage node.
	// Connection-scoped, like the block handles: a resumed session starts
	// back on the default mount.
	mnt atomic.Pointer[vfs.Mount]

	// Block-share handles (BOPEN, §14.3). Connection-scoped on purpose —
	// they are NOT part of sessState and do not survive a session resume:
	// a block handle holds no server-side state worth replaying (block
	// ops are idempotent at absolute offsets), so the client simply
	// re-BOPENs after a reconnect.
	bmu   sync.Mutex
	bdevs map[uint64]blockdev.Device
}

func newSession(srv *Server, rw io.ReadWriteCloser) *session {
	s := &session{
		srv:        srv,
		rw:         rw,
		chains:     make(map[uint64]chan struct{}),
		writerDone: make(chan struct{}),
	}
	s.st.Store(newSessState(srv.cfg.DRCEntries))
	if srv.mount != nil {
		s.mnt.Store(srv.mount)
	}
	s.wcond = sync.NewCond(&s.wmu)
	s.wspace = sync.NewCond(&s.wmu)
	go s.writer()
	return s
}

// handleKeyBit separates handle-chain keys from directory-chain keys in
// the session chain table (a collision would only over-serialize, never
// misorder, but keeping the spaces apart makes depth observable per
// class).
const handleKeyBit = uint64(1) << 63

// dirKey hashes a directory path into the chain-key space (FNV-1a, with
// the handle bit cleared).
func dirKey(dir string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(dir); i++ {
		h ^= uint64(dir[i])
		h *= prime64
	}
	return h &^ handleKeyBit
}

// parentDir returns the directory component of a wire path ("" for a
// top-level name), mirroring how the mount resolves parents.
func parentDir(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return ""
}

// chainKeys classifies q for the §13.5 ordering guarantees: WRITE/FSYNC
// order per handle, path-mutating ops order per affected parent directory
// (RENAME, MKDIR and RMDIR join the chain of every directory they touch,
// up to two), and everything else (reads) runs unordered. Keying mutations by
// directory rather than one per-session namespace chain lets pipelined
// clients mutate disjoint directories concurrently while same-directory
// mutations still apply in issue order.
func chainKeys(q *fsrpc.Request) (keys [2]uint64, n int) {
	switch q.Op {
	case fsrpc.OpWrite, fsrpc.OpFsync:
		keys[0] = q.Handle | handleKeyBit
		return keys, 1
	case fsrpc.OpBwrite, fsrpc.OpBflush, fsrpc.OpBdiscard:
		// Block mutations chain per block handle so a pipelined
		// write→flush applies in issue order. Block and file handles are
		// separate id spaces sharing one chain-key space; a collision
		// only over-serializes, never misorders. BREAD stays chainless
		// (run on the session reader), like READ.
		keys[0] = q.Handle | handleKeyBit
		return keys, 1
	case fsrpc.OpCreate, fsrpc.OpUnlink:
		keys[0] = dirKey(parentDir(q.Path))
		return keys, 1
	case fsrpc.OpMkdir, fsrpc.OpRmdir:
		// The directory's own chain too: creations inside it must wait
		// for the MKDIR and settle before the RMDIR.
		keys[0] = dirKey(parentDir(q.Path))
		keys[1] = dirKey(q.Path)
	case fsrpc.OpRename:
		keys[0] = dirKey(parentDir(q.Path))
		keys[1] = dirKey(parentDir(q.Path2))
	default:
		return keys, 0
	}
	if keys[1] == keys[0] {
		return keys, 1
	}
	return keys, 2
}

// link places t at the tail of its ordering chains (if its op has any).
// Called from the session reader only, so links happen in wire order —
// which is what makes chain order equal the client's issue order. A task
// spanning two chains (RENAME, MKDIR, RMDIR) installs the same done channel as
// both tails; every wait edge points at an earlier-admitted task, so the
// wait graph cannot cycle.
func (s *session) link(t *task) {
	keys, n := chainKeys(&t.req)
	if n == 0 {
		return
	}
	s.omu.Lock()
	t.chainKeys = keys
	t.nchains = n
	t.done = make(chan struct{})
	for i := 0; i < n; i++ {
		t.prev[i] = s.chains[keys[i]] // nil for a fresh chain
		s.chains[keys[i]] = t.done
	}
	s.omu.Unlock()
}

// unlink undoes link after a failed admission (queue full). Safe because
// the session reader is serial: nothing can have linked after t yet.
func (s *session) unlink(t *task) {
	if t.nchains == 0 {
		return
	}
	s.omu.Lock()
	for i := 0; i < t.nchains; i++ {
		if s.chains[t.chainKeys[i]] == t.done {
			if t.prev[i] != nil {
				s.chains[t.chainKeys[i]] = t.prev[i]
			} else {
				delete(s.chains, t.chainKeys[i])
			}
		}
	}
	s.omu.Unlock()
}

// finishChain marks t's chain positions complete, releasing any
// successors, and reaps the chain-table entries where t is still the
// tail.
func (s *session) finishChain(t *task) {
	if t.nchains == 0 {
		return
	}
	close(t.done)
	s.omu.Lock()
	for i := 0; i < t.nchains; i++ {
		if s.chains[t.chainKeys[i]] == t.done {
			delete(s.chains, t.chainKeys[i])
		}
	}
	s.omu.Unlock()
}

// put registers f and returns its handle, evicting the oldest handle if
// the table is full.
func (s *session) put(f *vfs.File) uint64 {
	id := s.srv.handleSeq.Add(1)
	s.state().put(id, f, s.srv.cfg.MaxHandles)
	return id
}

// get resolves a handle.
func (s *session) get(id uint64) (*vfs.File, bool) {
	return s.state().get(id)
}

// mount returns the session's attached mount (nil on a block-only node).
func (s *session) mount() *vfs.Mount { return s.mnt.Load() }

// bput registers a block-share handle. The table is bounded like the
// file-handle table: beyond MaxHandles the oldest handle is evicted and
// later requests naming it get EBADF.
func (s *session) bput(dev blockdev.Device) uint64 {
	s.bmu.Lock()
	defer s.bmu.Unlock()
	if s.bdevs == nil {
		s.bdevs = make(map[uint64]blockdev.Device)
	}
	id := s.srv.handleSeq.Add(1)
	s.bdevs[id] = dev
	if len(s.bdevs) > s.srv.cfg.MaxHandles {
		oldest := id
		for k := range s.bdevs {
			if k < oldest {
				oldest = k
			}
		}
		delete(s.bdevs, oldest)
	}
	return id
}

// bget resolves a block-share handle.
func (s *session) bget(id uint64) (blockdev.Device, bool) {
	s.bmu.Lock()
	defer s.bmu.Unlock()
	dev, ok := s.bdevs[id]
	return dev, ok
}

// sendReply hands one reply to the session writer. data is the pooled
// READ buffer the reply references, nil otherwise; done runs exactly once,
// after the write attempt.
func (s *session) sendReply(r *fsrpc.Reply, data *[]byte, done func()) {
	hdr := hdrBufPool.Get().(*[]byte)
	head, body, err := r.Frame((*hdr)[:0])
	if err != nil {
		// Unencodable reply (cannot happen for server-built replies, which
		// are bounded by MaxData); drop it but keep the accounting sound.
		hdrBufPool.Put(hdr)
		o := outReply{data: data, done: done}
		o.finish(s.srv, false)
		return
	}
	// Keep any growth the encode caused.
	*hdr = head[:0]
	o := outReply{head: head, body: body, hdr: hdr, data: data, done: done}

	s.wmu.Lock()
	if len(s.pending) == 0 && !s.writing && !s.wclosed && !s.broken {
		// Fast path: the transport is idle and nothing is staged ahead of
		// us, so write the frame from this goroutine instead of paying a
		// handoff to the writer. The writing flag keeps the writer (and
		// other fast-path callers) off the transport until we're done;
		// anything staged meanwhile is flushed by the writer afterwards.
		s.writing = true
		s.wmu.Unlock()
		s.segs = o.appendSegs(s.segs[:0])
		err := s.writeSegs()
		s.wmu.Lock()
		s.writing = false
		if err != nil {
			s.broken = true
		}
		s.wcond.Signal()
		s.wspace.Broadcast()
		s.wmu.Unlock()
		if err == nil {
			s.srv.m.batchReplies.Observe(1)
		}
		o.finish(s.srv, err == nil)
		return
	}
	for len(s.pending) >= maxPendingReplies && !s.wclosed && !s.broken {
		s.wspace.Wait()
	}
	if s.wclosed || s.broken {
		s.wmu.Unlock()
		o.finish(s.srv, false)
		return
	}
	s.pending = append(s.pending, o)
	s.wcond.Signal()
	s.wmu.Unlock()
}

// writer drains the pending reply queue: each pass takes every staged
// reply and pushes all their segments through the transport in a single
// net.Buffers flush. Write failures mark the session broken; later
// replies are finished (buffers released, accounting callbacks run)
// without touching the dead transport, so Shutdown's drain barrier can
// never hang on a vanished client.
func (s *session) writer() {
	defer close(s.writerDone)
	var batch []outReply
	for {
		s.wmu.Lock()
		for (len(s.pending) == 0 || s.writing) && !(s.wclosed && !s.writing) {
			s.wcond.Wait()
		}
		if len(s.pending) == 0 { // wclosed and fully drained
			s.wmu.Unlock()
			return
		}
		batch, s.pending = s.pending, batch[:0]
		s.writing = true
		broken := s.broken
		s.wspace.Broadcast()
		s.wmu.Unlock()

		if !broken {
			s.segs = s.segs[:0]
			for i := range batch {
				s.segs = batch[i].appendSegs(s.segs)
			}
			if err := s.writeSegs(); err != nil {
				broken = true
			} else {
				s.srv.m.batchReplies.Observe(int64(len(batch)))
			}
		}

		s.wmu.Lock()
		s.writing = false
		if broken {
			s.broken = true
		}
		s.wspace.Broadcast()
		s.wmu.Unlock()

		for i := range batch {
			batch[i].finish(s.srv, !broken)
			batch[i] = outReply{}
		}
	}
}

// writeSegs writes s.segs to the transport in one vectored write. The
// caller holds the writing flag. The write consumes the list it is given,
// so it is given a copy of the header: s.segs keeps its array for the next
// flush.
func (s *session) writeSegs() error {
	s.wv = s.segs
	_, err := s.wv.WriteTo(s.rw)
	return err
}

// flush waits until every staged reply has been pushed through (or the
// session broke/closed). The reader uses it before tearing a connection
// down for a protocol error, so the best-effort EPROTO reply gets out.
func (s *session) flush() {
	s.wmu.Lock()
	for (len(s.pending) > 0 || s.writing) && !s.wclosed && !s.broken {
		s.wspace.Wait()
	}
	s.wmu.Unlock()
}

// close releases the session: the writer (after it drains — replies
// staged behind a closed transport are finished, not written), the
// transport, and — for an anonymous session only — every open handle. A
// named session's handle table belongs to its sessState and survives the
// connection for the lease, awaiting a resuming HELLO (DESIGN.md §13.9).
// Safe to call more than once.
func (s *session) close() {
	s.wmu.Lock()
	s.wclosed = true
	s.wcond.Broadcast()
	s.wspace.Broadcast()
	s.wmu.Unlock()
	s.rw.Close() // unblocks a writer stuck mid-flush
	<-s.writerDone
	if st := s.state(); st.tok() == "" {
		st.closeHandles()
	}
}
