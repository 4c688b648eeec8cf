package fsrpc

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"betrfs/internal/metrics"
)

// Options configures a Client beyond the transport itself.
type Options struct {
	// Window bounds calls in flight (min 1; 0 means DefaultWindow).
	Window int
	// Metrics receives the client-side instruments (fsrpc.redial.*,
	// fsrpc.replay.*, fsrpc.deadline.*). Nil registers them on a private
	// registry, so the counters always exist but are invisible.
	Metrics *metrics.Registry
	// CallTimeout bounds each synchronous convenience call (Lookup, Write,
	// …). On expiry the call is abandoned (DESIGN.md §13.6) and the
	// fsrpc.deadline.expired counter is bumped. Zero means no deadline.
	CallTimeout time.Duration
}

// RedialPolicy shapes the automatic reconnect loop (EnableRedial).
type RedialPolicy struct {
	// MaxAttempts bounds consecutive failed dials before the client gives
	// up and poisons terminally. 0 means retry forever.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it up to MaxDelay. Defaults: 10ms base, 1s max. The
	// schedule is deterministic (no jitter) so seeded torture runs
	// reproduce exactly.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Sleep, when non-nil, replaces time.Sleep for backoff waits — tests
	// charge a simulated clock here and sleep zero wall time.
	Sleep func(time.Duration)
	// OnReconnect, when non-nil, is called after every successful resume
	// with the number of dial attempts the outage cost and whether the
	// server still held the session (false: the lease had expired and the
	// fate-unknown calls were failed with ErrStaleSession).
	OnReconnect func(attempts int, resumed bool)
}

// clientMetrics are the client-side instruments (DESIGN.md §13.7).
type clientMetrics struct {
	redialAttempt   *metrics.Counter
	redialSuccess   *metrics.Counter
	redialGiveup    *metrics.Counter
	replayCall      *metrics.Counter
	replayExpired   *metrics.Counter
	deadlineExpired *metrics.Counter
}

func resolveClientMetrics(reg *metrics.Registry) *clientMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &clientMetrics{
		redialAttempt:   reg.Counter("fsrpc.redial.attempt"),
		redialSuccess:   reg.Counter("fsrpc.redial.success"),
		redialGiveup:    reg.Counter("fsrpc.redial.giveup"),
		replayCall:      reg.Counter("fsrpc.replay.call"),
		replayExpired:   reg.Counter("fsrpc.replay.expired"),
		deadlineExpired: reg.Counter("fsrpc.deadline.expired"),
	}
}

// Hello establishes (or refreshes) a named session on the current
// connection: the server issues a token and lease, the session's handle
// table becomes resumable across reconnects, and subsequent mutating
// requests carry sequence numbers for the server's duplicate-reply cache
// (DESIGN.md §13.9). Idempotent: calling it on a client that already holds
// a session asks the server for a fresh one.
func (c *Client) Hello() error {
	r, err := c.call(Request{Op: OpHello})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.token = r.Token
	c.lease = time.Duration(r.Lease)
	c.seq = 0
	c.mu.Unlock()
	return nil
}

// Ping is the keepalive no-op: it round-trips through the server's fast
// path, renewing the session lease without touching the file system.
func (c *Client) Ping() error {
	_, err := c.call(Request{Op: OpPing})
	return err
}

// Session returns the current session token (empty before Hello) and its
// lease as granted by the server (0 = no expiry).
func (c *Client) Session() (token string, lease time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token, c.lease
}

// EnableRedial turns on automatic reconnection: when the transport dies,
// instead of poisoning, the client redials through dial with bounded
// exponential backoff, resumes its session with HELLO(token), re-issues
// every fate-unknown in-flight call (the server's duplicate-reply cache
// makes replayed mutations exactly-once), and carries on — callers just
// see higher latency. A session is required; if Hello has not been called
// yet, EnableRedial performs it on the current connection first. When the
// lease expired during the outage the fate-unknown calls fail with an
// error wrapping ErrStaleSession and a fresh session is started, so the
// client stays usable either way. See DESIGN.md §13.9.
func (c *Client) EnableRedial(dial func() (io.ReadWriteCloser, error), pol RedialPolicy) error {
	if dial == nil {
		return errors.New("fsrpc: EnableRedial requires a dial function")
	}
	if pol.BaseDelay <= 0 {
		pol.BaseDelay = 10 * time.Millisecond
	}
	if pol.MaxDelay <= 0 {
		pol.MaxDelay = time.Second
	}
	c.mu.Lock()
	needHello := c.token == ""
	c.dialer = dial
	c.policy = pol
	c.mu.Unlock()
	if needHello {
		return c.Hello()
	}
	return nil
}

// sleep applies the policy's backoff wait.
func (c *Client) sleep(d time.Duration) {
	if c.policy.Sleep != nil {
		c.policy.Sleep(d)
		return
	}
	time.Sleep(d)
}

// backoffDelay is the deterministic exponential schedule: base doubling
// per attempt, clamped to max.
func backoffDelay(pol RedialPolicy, attempt int) time.Duration {
	d := pol.BaseDelay
	for i := 1; i < attempt && d < pol.MaxDelay; i++ {
		d *= 2
	}
	if d > pol.MaxDelay {
		d = pol.MaxDelay
	}
	return d
}

// takeReplayLocked moves the pending table into the replay set in tag
// order (issue order), after any calls already parked there. Caller holds
// c.mu. Orphaned tags are dropped: their slots were released at
// abandonment and their replies will never arrive.
func (c *Client) takeReplayLocked() {
	tags := make([]uint64, 0, len(c.pending))
	for tag := range c.pending {
		tags = append(tags, tag)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	parked := c.replay
	c.replay = make([]*Call, 0, len(tags)+len(parked))
	for _, tag := range tags {
		c.replay = append(c.replay, c.pending[tag])
	}
	c.replay = append(c.replay, parked...)
	c.pending = make(map[uint64]*Call)
	c.orphans = make(map[uint64]struct{})
}

// redialLoop owns reconnect generation rgen: it dials with backoff until a
// resume succeeds, the policy's attempt budget runs out, or the generation
// is superseded by Reset/Close.
func (c *Client) redialLoop(rgen uint64, cause error) {
	var lastErr error = cause
	for attempt := 1; ; attempt++ {
		c.m.redialAttempt.Inc()
		rw, err := c.dialer()
		if err == nil {
			done, rerr := c.resume(rgen, rw, attempt)
			if done {
				return
			}
			_ = rw.Close()
			err = rerr
		}
		lastErr = err
		if c.policy.MaxAttempts > 0 && attempt >= c.policy.MaxAttempts {
			c.m.redialGiveup.Inc()
			c.giveUp(rgen, fmt.Errorf("%w: redial gave up after %d attempts: %w", ErrPoisoned, attempt, lastErr))
			return
		}
		c.sleep(backoffDelay(c.policy, attempt))
		c.mu.Lock()
		stale := c.gen != rgen
		c.mu.Unlock()
		if stale {
			return
		}
	}
}

// resume performs the HELLO(token) handshake on a freshly dialed
// transport and, on success, installs it: replay calls get fresh tags in
// their original issue order, the reader restarts, and the replay frames
// are written before any new call can reach the wire (the write lock is
// held across the whole install). The frames are encoded while the calls
// are entered in the pending table, under the client lock: once it is
// released a call can be delivered (a reply, or a Close failing it) and
// recycled by its caller, so nothing reads a call after that. done=false means the handshake failed
// and the caller should back off and retry (the caller closes rw);
// done=true means this generation is finished — resumed, superseded
// (resume closes rw itself, since it was never installed), or (stale
// session) the replays were failed and a fresh session installed.
func (c *Client) resume(rgen uint64, rw io.ReadWriteCloser, attempts int) (done bool, err error) {
	c.mu.Lock()
	if c.gen != rgen {
		c.mu.Unlock()
		_ = rw.Close()
		return true, nil
	}
	token := c.token
	c.mu.Unlock()

	// Raw synchronous handshake: no reader is running for this transport
	// yet, so write the frame and read the one reply in line. The reader
	// started below takes over the same frame reader, and with it any
	// reply bytes that arrived behind the handshake's.
	fr := NewFrameReader(rw)
	handshake := func(tag uint64, tok string) (*Reply, error) {
		if werr := WriteFrame(rw, (&Request{Op: OpHello, Tag: tag, Token: tok}).Encode()); werr != nil {
			return nil, werr
		}
		payload, rerr := fr.Next()
		if rerr != nil {
			return nil, rerr
		}
		r, derr := DecodeReply(payload)
		if derr != nil {
			return nil, derr
		}
		if r.Op != OpHello || r.Tag != tag {
			return nil, fmt.Errorf("%w: resume handshake reply mismatch (%s tag %d)", ErrProto, r.Op, r.Tag)
		}
		return r, nil
	}

	r, err := handshake(1, token)
	if err != nil {
		return false, err
	}
	staleSession := false
	switch r.Status {
	case StatusOK:
	case StatusStale:
		// The lease expired (or the server restarted): the session's
		// duplicate-reply cache is gone, so the fate-unknown calls cannot
		// be replayed safely. Start a fresh session to keep the client
		// usable and fail the replays below.
		staleSession = true
		r, err = handshake(2, "")
		if err != nil {
			return false, err
		}
		if r.Status != StatusOK {
			return false, r.Status.Err()
		}
	default:
		return false, r.Status.Err()
	}

	// Install under the write lock so replay frames precede any frame a
	// newly unblocked Go can write: tag order on the wire stays issue
	// order (DESIGN.md §13.5).
	c.wmu.Lock()
	c.mu.Lock()
	if c.gen != rgen {
		c.mu.Unlock()
		c.wmu.Unlock()
		_ = rw.Close()
		return true, nil
	}
	c.token = r.Token
	c.lease = time.Duration(r.Lease)
	replay := c.replay
	c.replay = nil
	c.rw = rw
	c.tag = 2 // tags 1/2 were consumed by the handshake on this transport
	c.dead = nil
	var frames []byte
	var ends []int // where each replayed frame ends in frames
	var ferr error
	if staleSession {
		c.seq = 0
	} else {
		frames = c.wbuf[:0]
		for _, call := range replay {
			c.tag++
			call.Req.Tag = c.tag
			c.pending[call.Req.Tag] = call
			if ferr == nil {
				var f []byte
				if f, ferr = call.Req.appendFrame(frames); ferr == nil {
					frames, ends = f, append(ends, len(f))
				}
			}
		}
	}
	ch := c.resuming
	c.resuming = nil
	c.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	// Counted before the reader can deliver a replayed call, so a caller
	// whose call completed across the cut also sees the redial.
	c.m.redialSuccess.Inc()
	go c.reader(rgen, fr)

	if staleSession {
		c.wmu.Unlock()
		for range replay {
			c.m.replayExpired.Inc()
		}
		c.failAll(replay, fmt.Errorf("%w: %w: in-flight effects unknown", ErrPoisoned, ErrStaleSession))
	} else {
		var werr error
		start := 0
		for _, end := range ends {
			c.m.replayCall.Inc()
			if _, werr = rw.Write(frames[start:end]); werr != nil {
				break
			}
			start = end
		}
		if werr == nil {
			werr = ferr
		}
		if cap(frames) <= frameKeep {
			c.wbuf = frames
		}
		c.wmu.Unlock()
		if werr != nil {
			// The fresh transport died mid-replay; the calls are back in
			// pending, so the next poison cycle re-collects them.
			c.poison(rgen, fmt.Errorf("%w: send during replay: %w", ErrPoisoned, werr))
		}
	}
	if c.policy.OnReconnect != nil {
		c.policy.OnReconnect(attempts, !staleSession)
	}
	return true, nil
}

// giveUp terminates reconnect generation rgen: the client poisons
// terminally and every held call — replay set and pending alike — fails.
func (c *Client) giveUp(rgen uint64, err error) {
	c.mu.Lock()
	if c.gen != rgen {
		c.mu.Unlock()
		return
	}
	c.dead = err
	c.takeReplayLocked()
	calls := c.replay
	c.replay = nil
	ch := c.resuming
	c.resuming = nil
	c.mu.Unlock()
	if ch != nil {
		close(ch)
	}
	c.failAll(calls, err)
}
