package fsrpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// ErrPoisoned marks a client whose transport broke mid-protocol: a frame
// was cut short, a reply arrived for a tag the client never issued, or the
// stream closed. Every error returned from a poisoned client wraps it
// (errors.Is reports it), so callers can distinguish "this call failed"
// (a status error, safe to retry) from "this connection is unusable" and
// implement a reconnect with Reset. Poisoning is total: every call in
// flight when the transport dies fails with the same class, and the
// transport is closed deterministically so no half-read frame lingers.
// See DESIGN.md §13.6 for the state machine and the idempotency caveat on
// resending the poisoning call after a reconnect.
var ErrPoisoned = errors.New("fsrpc: client poisoned")

// DefaultWindow is the default bound on calls in flight per client. A
// caller that would exceed it blocks in Go/Do until a slot frees — the
// window applies backpressure, it never drops (DESIGN.md §13.4).
const DefaultWindow = 32

// Call is one in-flight request issued with Go. When the call completes
// (reply received, transport poisoned, or Reset), Reply/Err are set and
// the call is delivered on its done channel exactly once.
type Call struct {
	Req   *Request
	Reply *Reply // nil on transport errors
	Err   error  // nil on success; Status.Err() on status errors
	done  chan *Call
}

// Done returns the completion channel; the call itself is sent on it
// exactly once, after Reply and Err are set.
func (c *Call) Done() <-chan *Call { return c.done }

// Client drives the fsrpc protocol over any byte stream, pipelined: up to
// `window` requests may be in flight at once, each identified by its tag,
// with a dedicated reader goroutine dispatching completions in whatever
// order the server produces them. The synchronous convenience methods
// (Lookup, Read, …) each occupy one window slot for the duration of the
// call, so a single-goroutine caller behaves exactly like the historical
// serialized client, while N goroutines (or Go) multiplex one connection.
//
// A transport error — send failure, short frame, a reply for an unknown
// tag — poisons the client: every in-flight call fails with an error
// wrapping ErrPoisoned, the transport is closed, and later calls fail
// fast until Reset installs a fresh connection.
type Client struct {
	window chan struct{} // in-flight slots; send = acquire
	opts   Options
	m      *clientMetrics

	wmu sync.Mutex // serializes frame writes (wire order = Go order)

	mu      sync.Mutex
	rw      io.ReadWriteCloser
	gen     uint64 // bumped by Reset/reconnect; stale readers/writers check it
	tag     uint64
	pending map[uint64]*Call    // tag → in-flight call
	orphans map[uint64]struct{} // tags abandoned by a cancelled context
	dead    error               // first transport failure; later calls repeat it

	// Session resumption state (DESIGN.md §13.9).
	token    string        // server-issued session token (empty: anonymous)
	lease    time.Duration // lease the server granted with the token
	seq      uint64        // last sequence number assigned to a mutation
	dialer   func() (io.ReadWriteCloser, error)
	policy   RedialPolicy
	resuming chan struct{} // non-nil while a redial loop owns the transport
	replay   []*Call       // fate-unknown calls awaiting resume (hold window slots)
}

// NewClient wraps an established connection (a net.Conn or one end of a
// net.Pipe) with the default in-flight window.
func NewClient(rw io.ReadWriteCloser) *Client {
	return NewClientWindow(rw, DefaultWindow)
}

// NewClientWindow wraps an established connection with an explicit bound
// on calls in flight. window < 1 means 1 (fully serialized, the historical
// behavior).
func NewClientWindow(rw io.ReadWriteCloser, window int) *Client {
	if window < 1 {
		window = 1
	}
	return NewClientOpts(rw, Options{Window: window})
}

// NewClientOpts wraps an established connection with full Options.
func NewClientOpts(rw io.ReadWriteCloser, o Options) *Client {
	if o.Window < 1 {
		if o.Window == 0 {
			o.Window = DefaultWindow
		} else {
			o.Window = 1
		}
	}
	c := &Client{
		window:  make(chan struct{}, o.Window),
		opts:    o,
		m:       resolveClientMetrics(o.Metrics),
		rw:      rw,
		pending: make(map[uint64]*Call),
		orphans: make(map[uint64]struct{}),
	}
	go c.reader(0, rw)
	return c
}

// Window returns the client's in-flight bound.
func (c *Client) Window() int { return cap(c.window) }

// Close tears down the transport, failing every in-flight call with
// ErrPoisoned. A redial loop in progress is superseded and exits.
func (c *Client) Close() error {
	err := fmt.Errorf("%w: client closed", ErrPoisoned)
	c.mu.Lock()
	c.gen++ // invalidate the reader and any redial loop
	rw := c.rw
	if c.dead == nil {
		c.dead = err
	}
	c.takeReplayLocked()
	calls := c.replay
	c.replay = nil
	ch := c.resuming
	c.resuming = nil
	c.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	cerr := rw.Close()
	c.failAll(calls, err)
	return cerr
}

// Reset replaces the transport with a freshly established connection and
// clears the poisoned state, so a caller that detected ErrPoisoned can
// redial and keep using the same Client. Any calls still in flight on the
// old transport fail with ErrPoisoned, the old transport is closed
// (best-effort), and the tag sequence restarts: the new connection starts
// a new anonymous server session, so handles opened on the old one are
// gone, any resumable session token is dropped, and in-flight effects of
// the poisoned calls are unknown (DESIGN.md §13.6 — non-idempotent calls
// such as Create or Write may or may not have been applied). For
// transparent reconnection with exactly-once replay, use Hello +
// EnableRedial instead (§13.9).
func (c *Client) Reset(rw io.ReadWriteCloser) {
	c.mu.Lock()
	old := c.rw
	c.takeReplayLocked()
	calls := c.replay
	c.replay = nil
	ch := c.resuming
	c.resuming = nil
	c.gen++
	gen := c.gen
	c.rw = rw
	c.tag = 0
	c.dead = nil
	c.token = ""
	c.seq = 0
	c.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	if old != nil && old != rw {
		_ = old.Close()
	}
	c.failAll(calls, fmt.Errorf("%w: reset", ErrPoisoned))
	go c.reader(gen, rw)
}

// failAll delivers err to every call and releases its window slot.
func (c *Client) failAll(calls []*Call, err error) {
	for _, call := range calls {
		call.Err = err
		<-c.window
		call.done <- call
	}
}

// poison handles the first transport failure for generation gen. With a
// resumable session and a dialer installed (EnableRedial), the client
// enters reconnecting instead of dying: in-flight calls move to the
// replay set (keeping their window slots), the broken transport is
// closed, and a redial loop takes over the next generation. Otherwise the
// failure latches terminally: every in-flight call fails with err, the
// transport is closed so the broken stream is torn down deterministically
// (a poisoned byte stream cannot be resynchronized, and leaving it open
// would leave the peer writing into the void), and every later call fails
// fast with the latched error. Stale generations (superseded by Reset or
// a reconnect) are ignored.
func (c *Client) poison(gen uint64, err error) {
	c.mu.Lock()
	if gen != c.gen || c.dead != nil {
		c.mu.Unlock()
		return
	}
	if c.dialer != nil && c.token != "" {
		c.gen++
		rgen := c.gen
		rw := c.rw
		c.takeReplayLocked()
		c.resuming = make(chan struct{})
		c.mu.Unlock()
		_ = rw.Close()
		go c.redialLoop(rgen, err)
		return
	}
	c.dead = err
	c.takeReplayLocked()
	calls := c.replay
	c.replay = nil
	rw := c.rw
	c.mu.Unlock()
	_ = rw.Close()
	c.failAll(calls, err)
}

// reader is the dispatch loop for one transport generation: it reads
// reply frames and completes the matching in-flight call, in whatever
// order the server pipelines them.
func (c *Client) reader(gen uint64, rw io.ReadWriteCloser) {
	for {
		payload, err := ReadFrame(rw)
		if err != nil {
			c.poison(gen, fmt.Errorf("%w: recv: %w", ErrPoisoned, err))
			return
		}
		r, err := DecodeReply(payload)
		if err != nil {
			c.poison(gen, fmt.Errorf("%w: %w", ErrPoisoned, err))
			return
		}
		c.mu.Lock()
		if gen != c.gen {
			c.mu.Unlock()
			return
		}
		if _, ok := c.orphans[r.Tag]; ok {
			// The caller's context expired and the call was abandoned;
			// the slot was released at abandonment. Discard the reply.
			delete(c.orphans, r.Tag)
			c.mu.Unlock()
			continue
		}
		call, ok := c.pending[r.Tag]
		if !ok || call.Req.Op != r.Op {
			c.mu.Unlock()
			c.poison(gen, fmt.Errorf("%w: %w: reply tag/op mismatch (got %s tag %d)",
				ErrPoisoned, ErrProto, r.Op, r.Tag))
			return
		}
		delete(c.pending, r.Tag)
		c.mu.Unlock()
		call.Reply = r
		if r.Status != StatusOK {
			call.Err = r.Status.Err()
		}
		<-c.window
		call.done <- call
	}
}

// Go issues q asynchronously: it acquires an in-flight window slot
// (blocking while the window is saturated — requests are never dropped),
// assigns the tag, writes the frame, and returns the in-flight call,
// which is delivered on its Done channel when the reply arrives or the
// transport dies. ctx bounds only the wait for a window slot; use Do for
// a context that also bounds the reply wait. Calls issued by a single
// goroutine reach the wire in issue order, which is what the server's
// per-class ordering guarantees key off (DESIGN.md §13.5).
func (c *Client) Go(ctx context.Context, q *Request) *Call {
	call := &Call{Req: q, done: make(chan *Call, 1)}
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead != nil {
		call.Err = dead
		call.done <- call
		return call
	}
	select {
	case c.window <- struct{}{}:
	case <-ctx.Done():
		call.Err = ctx.Err()
		call.done <- call
		return call
	}
	c.mu.Lock()
	if c.dead != nil {
		err := c.dead
		c.mu.Unlock()
		<-c.window
		call.Err = err
		call.done <- call
		return call
	}
	if q.Seq == 0 && c.token != "" && q.Op.Mutating() {
		c.seq++
		q.Seq = c.seq
	}
	if c.resuming != nil {
		// Transport down, redial in progress: park the call in the replay
		// set (it keeps its window slot). It is assigned a tag and written
		// after the fate-unknown calls when the session resumes.
		c.replay = append(c.replay, call)
		c.mu.Unlock()
		return call
	}
	c.tag++
	q.Tag = c.tag
	gen := c.gen
	rw := c.rw
	c.pending[q.Tag] = call
	c.mu.Unlock()

	c.wmu.Lock()
	err := WriteFrame(rw, q.Encode())
	c.wmu.Unlock()
	if err != nil {
		c.poison(gen, fmt.Errorf("%w: send: %w", ErrPoisoned, err))
	}
	return call
}

// abandon detaches call after its context expired: the tag moves to the
// orphan table so the eventual reply is discarded instead of poisoning
// the stream, and the window slot is released. A call parked in the
// replay set during a reconnect is simply removed from it. Returns false
// when the call already completed (its result is on the done channel).
func (c *Client) abandon(call *Call) bool {
	c.mu.Lock()
	if cur, ok := c.pending[call.Req.Tag]; ok && cur == call {
		delete(c.pending, call.Req.Tag)
		c.orphans[call.Req.Tag] = struct{}{}
		c.mu.Unlock()
		<-c.window
		return true
	}
	for i, parked := range c.replay {
		if parked == call {
			c.replay = append(c.replay[:i], c.replay[i+1:]...)
			c.mu.Unlock()
			<-c.window
			return true
		}
	}
	c.mu.Unlock()
	return false
}

// Do issues q and waits for its completion under ctx. On ctx expiry the
// call is abandoned: its window slot frees immediately and the eventual
// reply is discarded. The request may still execute on the server — the
// same fate-unknown caveat as a poisoned call (DESIGN.md §13.6).
func (c *Client) Do(ctx context.Context, q *Request) (*Reply, error) {
	call := c.Go(ctx, q)
	select {
	case <-call.done:
		return call.Reply, call.Err
	case <-ctx.Done():
		if c.abandon(call) {
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				c.m.deadlineExpired.Inc()
			}
			return nil, ctx.Err()
		}
		<-call.done // completion raced the context; prefer the result
		return call.Reply, call.Err
	}
}

// call is the synchronous form every convenience method uses, bounded by
// Options.CallTimeout when one is configured.
func (c *Client) call(q *Request) (*Reply, error) {
	if t := c.opts.CallTimeout; t > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), t)
		defer cancel()
		return c.Do(ctx, q)
	}
	call := c.Go(context.Background(), q)
	<-call.done
	return call.Reply, call.Err
}

// Lookup resolves path. When open is true and the target is a regular
// file, the server opens it in this session and returns the handle.
func (c *Client) Lookup(path string, open bool) (handle uint64, attr Attr, err error) {
	q := &Request{Op: OpLookup, Path: path}
	if open {
		q.Flags = LookupOpen
	}
	r, err := c.call(q)
	if err != nil {
		return 0, Attr{}, err
	}
	return r.Handle, r.Attr, nil
}

// Getattr stats path.
func (c *Client) Getattr(path string) (Attr, error) {
	r, err := c.call(&Request{Op: OpGetattr, Path: path})
	if err != nil {
		return Attr{}, err
	}
	return r.Attr, nil
}

// Create creates (or truncates) a file and opens it, returning the
// session handle and initial attributes.
func (c *Client) Create(path string) (handle uint64, attr Attr, err error) {
	r, err := c.call(&Request{Op: OpCreate, Path: path})
	if err != nil {
		return 0, Attr{}, err
	}
	return r.Handle, r.Attr, nil
}

// Read reads up to n bytes at off from handle.
func (c *Client) Read(handle uint64, off int64, n int) ([]byte, error) {
	if n < 0 || n > MaxData {
		return nil, fmt.Errorf("%w: read size %d out of range", ErrProto, n)
	}
	r, err := c.call(&Request{Op: OpRead, Handle: handle, Off: off, N: uint32(n)})
	if err != nil {
		return nil, err
	}
	return r.Data, nil
}

// Write writes data at off through handle, returning bytes written.
func (c *Client) Write(handle uint64, off int64, data []byte) (int, error) {
	if len(data) > MaxData {
		return 0, fmt.Errorf("%w: write size %d exceeds MaxData", ErrProto, len(data))
	}
	r, err := c.call(&Request{Op: OpWrite, Handle: handle, Off: off, Data: data})
	if err != nil {
		return 0, err
	}
	return int(r.N), nil
}

// Mkdir creates a directory.
func (c *Client) Mkdir(path string) error {
	_, err := c.call(&Request{Op: OpMkdir, Path: path})
	return err
}

// Unlink removes a file.
func (c *Client) Unlink(path string) error {
	_, err := c.call(&Request{Op: OpUnlink, Path: path})
	return err
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(path string) error {
	_, err := c.call(&Request{Op: OpRmdir, Path: path})
	return err
}

// Rename moves oldPath to newPath.
func (c *Client) Rename(oldPath, newPath string) error {
	_, err := c.call(&Request{Op: OpRename, Path: oldPath, Path2: newPath})
	return err
}

// Readdir lists a directory.
func (c *Client) Readdir(path string) ([]DirEnt, error) {
	r, err := c.call(&Request{Op: OpReaddir, Path: path})
	if err != nil {
		return nil, err
	}
	return r.Entries, nil
}

// Fsync makes handle's data and metadata durable.
func (c *Client) Fsync(handle uint64) error {
	_, err := c.call(&Request{Op: OpFsync, Handle: handle})
	return err
}

// Statfs returns service-level file-system information.
func (c *Client) Statfs() (Statfs, error) {
	r, err := c.call(&Request{Op: OpStatfs})
	if err != nil {
		return Statfs{}, err
	}
	return r.Statfs, nil
}

// Bopen opens the named block share on the server's registry (DESIGN.md
// §14), returning the session-scoped block handle and the share's
// capacity in bytes. Block handles do not survive a session resume.
func (c *Client) Bopen(share string) (handle uint64, size int64, err error) {
	r, err := c.call(&Request{Op: OpBopen, Path: share})
	if err != nil {
		return 0, 0, err
	}
	return r.Handle, r.Size, nil
}

// Bread reads n bytes at absolute device offset off from a block handle.
func (c *Client) Bread(handle uint64, off int64, n int) ([]byte, error) {
	if n < 0 || n > MaxData {
		return nil, fmt.Errorf("%w: bread size %d out of range", ErrProto, n)
	}
	r, err := c.call(&Request{Op: OpBread, Handle: handle, Off: off, N: uint32(n)})
	if err != nil {
		return nil, err
	}
	return r.Data, nil
}

// Bwrite writes data at absolute device offset off through a block
// handle, returning bytes written. Idempotent: re-applying the same
// BWRITE yields the same device state (§14).
func (c *Client) Bwrite(handle uint64, off int64, data []byte) (int, error) {
	if len(data) > MaxData {
		return 0, fmt.Errorf("%w: bwrite size %d exceeds MaxData", ErrProto, len(data))
	}
	r, err := c.call(&Request{Op: OpBwrite, Handle: handle, Off: off, Data: data})
	if err != nil {
		return 0, err
	}
	return int(r.N), nil
}

// Bflush drains the block share's queue and volatile write cache.
func (c *Client) Bflush(handle uint64) error {
	_, err := c.call(&Request{Op: OpBflush, Handle: handle})
	return err
}

// Bdiscard forwards a TRIM hint for [off, off+length) through a block
// handle.
func (c *Client) Bdiscard(handle uint64, off, length int64) error {
	_, err := c.call(&Request{Op: OpBdiscard, Handle: handle, Off: off, Len: length})
	return err
}

// Attach rebinds this session's file operations to the named mount share
// on the server's registry (§14). Handles opened before the attach keep
// working against the files they already name.
func (c *Client) Attach(share string) error {
	_, err := c.call(&Request{Op: OpAttach, Path: share})
	return err
}

// Shares lists the server registry's shares: mount shares as directory
// entries (Dir true), block shares as file entries (Dir false).
func (c *Client) Shares() ([]DirEnt, error) {
	r, err := c.call(&Request{Op: OpShares})
	if err != nil {
		return nil, err
	}
	return r.Entries, nil
}
