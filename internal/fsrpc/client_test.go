package fsrpc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// peer is a scripted raw-frame server end: tests read decoded requests
// from reqs and push replies through send, controlling completion order
// precisely — something a real server cannot script.
type peer struct {
	conn  net.Conn
	reqs  chan *Request
	errCh chan error
}

func newPeer(t *testing.T) (*Client, *peer) {
	t.Helper()
	cliEnd, srvEnd := net.Pipe()
	p := &peer{conn: srvEnd, reqs: make(chan *Request, 64), errCh: make(chan error, 1)}
	go func() {
		fr := NewFrameReader(srvEnd)
		for {
			payload, err := fr.Next()
			if err != nil {
				p.errCh <- err
				close(p.reqs)
				return
			}
			q, err := DecodeRequest(payload)
			if err != nil {
				p.errCh <- err
				close(p.reqs)
				return
			}
			p.reqs <- q
		}
	}()
	return NewClient(cliEnd), p
}

func (p *peer) reply(t *testing.T, r *Reply) {
	t.Helper()
	if err := WriteFrame(p.conn, r.Encode()); err != nil {
		t.Fatalf("peer write: %v", err)
	}
}

func (p *peer) recv(t *testing.T) *Request {
	t.Helper()
	select {
	case q, ok := <-p.reqs:
		if !ok {
			t.Fatal("peer: transport closed before expected request")
		}
		return q
	case <-time.After(10 * time.Second):
		t.Fatal("peer: timed out waiting for a request")
		return nil
	}
}

func wait(t *testing.T, c *Call) *Call {
	t.Helper()
	select {
	case <-c.Done():
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for call completion")
		return nil
	}
}

// TestOutOfOrderCompletion pipelines three requests and completes them in
// reverse wire order: each call must receive exactly the reply bearing
// its tag, regardless of delivery order.
func TestOutOfOrderCompletion(t *testing.T) {
	cli, p := newPeer(t)
	defer cli.Close()

	calls := make([]*Call, 3)
	for i := range calls {
		calls[i] = cli.Go(context.Background(), &Request{Op: OpGetattr, Path: "f"})
	}
	var reqs []*Request
	for range calls {
		reqs = append(reqs, p.recv(t))
	}
	// Tags are assigned in issue order by a single goroutine.
	for i, q := range reqs {
		if q.Tag != uint64(i+1) {
			t.Fatalf("request %d carries tag %d, want %d", i, q.Tag, i+1)
		}
	}
	// Complete newest-first, with a distinct attr size per tag.
	for i := len(reqs) - 1; i >= 0; i-- {
		p.reply(t, &Reply{Op: OpGetattr, Tag: reqs[i].Tag, Attr: Attr{Size: int64(reqs[i].Tag)}})
	}
	for i, c := range calls {
		wait(t, c)
		if c.Err != nil {
			t.Fatalf("call %d failed: %v", i, c.Err)
		}
		if c.Reply.Tag != c.Req.Tag || c.Reply.Attr.Size != int64(c.Req.Tag) {
			t.Fatalf("call %d got reply tag %d size %d, want tag %d",
				i, c.Reply.Tag, c.Reply.Attr.Size, c.Req.Tag)
		}
	}
}

// TestWindowSaturationBlocks checks the backpressure contract: a Go call
// beyond the in-flight window blocks until a slot frees — it is never
// dropped and never errors — while a bounding context can abandon the
// wait.
func TestWindowSaturationBlocks(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	cli := NewClientOpts(cliEnd, Options{Window: 2})
	defer cli.Close()
	p := &peer{conn: srvEnd, reqs: make(chan *Request, 64), errCh: make(chan error, 1)}
	go func() {
		fr := NewFrameReader(srvEnd)
		for {
			payload, err := fr.Next()
			if err != nil {
				close(p.reqs)
				return
			}
			q, _ := DecodeRequest(payload)
			p.reqs <- q
		}
	}()

	c1 := cli.Go(context.Background(), &Request{Op: OpStatfs})
	c2 := cli.Go(context.Background(), &Request{Op: OpStatfs})
	q1, q2 := p.recv(t), p.recv(t)

	// Window full: a context-bounded Go must report the context error, not
	// issue the request.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	blocked := cli.Go(ctx, &Request{Op: OpStatfs})
	cancel()
	wait(t, blocked)
	if !errors.Is(blocked.Err, context.DeadlineExceeded) {
		t.Fatalf("saturated Go = %v, want DeadlineExceeded", blocked.Err)
	}

	// An unbounded Go blocks until the peer completes one in-flight call,
	// then proceeds: the request is delayed, never dropped.
	issued := make(chan *Call, 1)
	go func() { issued <- cli.Go(context.Background(), &Request{Op: OpStatfs}) }()
	select {
	case <-issued:
		t.Fatal("Go returned while the window was saturated")
	case <-time.After(20 * time.Millisecond):
	}
	p.reply(t, &Reply{Op: OpStatfs, Tag: q1.Tag})
	c3 := <-issued
	q3 := p.recv(t)
	p.reply(t, &Reply{Op: OpStatfs, Tag: q3.Tag})
	p.reply(t, &Reply{Op: OpStatfs, Tag: q2.Tag})
	for _, c := range []*Call{c1, c2, c3} {
		if wait(t, c); c.Err != nil {
			t.Fatalf("call failed: %v", c.Err)
		}
	}
}

// TestMidPipelineTransportDeath kills the transport with a window full of
// in-flight calls: every one of them must complete with an error in the
// ErrPoisoned class, and later calls must fail fast the same way.
func TestMidPipelineTransportDeath(t *testing.T) {
	cli, p := newPeer(t)
	calls := make([]*Call, 8)
	for i := range calls {
		calls[i] = cli.Go(context.Background(), &Request{Op: OpGetattr, Path: "f"})
	}
	for range calls {
		p.recv(t)
	}
	p.conn.Close()
	for i, c := range calls {
		wait(t, c)
		if !errors.Is(c.Err, ErrPoisoned) {
			t.Fatalf("in-flight call %d after transport death = %v, want ErrPoisoned", i, c.Err)
		}
	}
	if c := wait(t, cli.Go(context.Background(), &Request{Op: OpStatfs})); !errors.Is(c.Err, ErrPoisoned) {
		t.Fatalf("call on poisoned client = %v, want ErrPoisoned", c.Err)
	}
}

// TestTagMismatchPoisonsAndClosesTransport is the regression test for the
// poison teardown path: a reply bearing a tag the client never issued is
// a protocol breach, and the client must (a) fail every in-flight call
// with ErrPoisoned+ErrProto and (b) close the broken transport
// deterministically — observable as the peer's next read unblocking with
// an error — rather than leaving a half-read stream dangling.
func TestTagMismatchPoisonsAndClosesTransport(t *testing.T) {
	cli, p := newPeer(t)
	call := cli.Go(context.Background(), &Request{Op: OpGetattr, Path: "f"})
	q := p.recv(t)
	p.reply(t, &Reply{Op: OpGetattr, Tag: q.Tag + 99})

	wait(t, call)
	if !errors.Is(call.Err, ErrPoisoned) || !errors.Is(call.Err, ErrProto) {
		t.Fatalf("call after tag mismatch = %v, want ErrPoisoned+ErrProto", call.Err)
	}
	// The client closed its end: the peer's reader loop must terminate
	// with a transport error instead of blocking forever.
	select {
	case err := <-p.errCh:
		if err == nil || err == io.EOF {
			// EOF is fine too — either way the stream was torn down.
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer still readable after tag mismatch; transport was not closed")
	}
	// A mismatched op on a known tag poisons identically.
	cli2, p2 := newPeer(t)
	defer cli2.Close()
	call2 := cli2.Go(context.Background(), &Request{Op: OpGetattr, Path: "f"})
	q2 := p2.recv(t)
	p2.reply(t, &Reply{Op: OpStatfs, Tag: q2.Tag})
	wait(t, call2)
	if !errors.Is(call2.Err, ErrPoisoned) || !errors.Is(call2.Err, ErrProto) {
		t.Fatalf("call after op mismatch = %v, want ErrPoisoned+ErrProto", call2.Err)
	}
}

// TestResetRestartsCleanly poisons a client, Resets it onto a fresh
// transport, and checks the post-Reset contract: the poison latch clears,
// the tag sequence restarts at 1, and in-flight calls from the old
// generation stay failed instead of leaking into the new connection.
func TestResetRestartsCleanly(t *testing.T) {
	cli, p := newPeer(t)
	stuck := cli.Go(context.Background(), &Request{Op: OpGetattr, Path: "f"})
	p.recv(t)

	cliEnd2, srvEnd2 := net.Pipe()
	p2 := &peer{conn: srvEnd2, reqs: make(chan *Request, 64), errCh: make(chan error, 1)}
	go func() {
		fr := NewFrameReader(srvEnd2)
		for {
			payload, err := fr.Next()
			if err != nil {
				close(p2.reqs)
				return
			}
			q, _ := DecodeRequest(payload)
			p2.reqs <- q
		}
	}()
	cli.Reset(cliEnd2)

	wait(t, stuck)
	if !errors.Is(stuck.Err, ErrPoisoned) {
		t.Fatalf("in-flight call across Reset = %v, want ErrPoisoned", stuck.Err)
	}
	call := cli.Go(context.Background(), &Request{Op: OpStatfs})
	q := p2.recv(t)
	if q.Tag != 1 {
		t.Fatalf("first post-Reset tag = %d, want 1", q.Tag)
	}
	p2.reply(t, &Reply{Op: OpStatfs, Tag: q.Tag})
	if wait(t, call); call.Err != nil {
		t.Fatalf("post-Reset call failed: %v", call.Err)
	}
	cli.Close()
}

// TestFramePartsByteEquivalence: the scatter-gather frame a reply renders
// through FrameParts must be byte-identical to WriteFrame(Encode()) for
// every reply shape, zero-copy READ fast path included.
func TestFramePartsByteEquivalence(t *testing.T) {
	replies := []*Reply{
		{Op: OpRead, Tag: 7, Data: []byte("zero copy payload")},
		{Op: OpRead, Tag: 8, Data: nil},
		{Op: OpRead, Tag: 9, Status: StatusIO},
		{Op: OpLookup, Tag: 10, Handle: 42, Attr: Attr{Size: 4096, Nlink: 1}},
		{Op: OpWrite, Tag: 11, N: 512},
		{Op: OpReaddir, Tag: 12, Entries: []DirEnt{{Name: "a", Dir: true}, {Name: "b"}}},
		{Op: OpStatfs, Tag: 13, Statfs: Statfs{BlockSize: 4096, Sessions: 2}},
		{Op: OpMkdir, Tag: 14, Status: StatusExist},
	}
	for _, r := range replies {
		var want bytes.Buffer
		if err := WriteFrame(&want, r.Encode()); err != nil {
			t.Fatalf("%s: WriteFrame: %v", r.Op, err)
		}
		segs, zc, err := r.FrameParts(make([]byte, 0, 64))
		if err != nil {
			t.Fatalf("%s: FrameParts: %v", r.Op, err)
		}
		var got bytes.Buffer
		for _, seg := range segs {
			got.Write(seg)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("%s: FrameParts frame differs from WriteFrame(Encode())", r.Op)
		}
		if r.Op == OpRead && r.Status == StatusOK {
			if zc != len(r.Data) {
				t.Fatalf("READ zerocopy = %d, want %d", zc, len(r.Data))
			}
			if len(r.Data) > 0 && (len(segs) != 2 || &segs[1][0] != &r.Data[0]) {
				t.Fatal("READ payload was copied, not referenced")
			}
		} else if zc != 0 {
			t.Fatalf("%s: zerocopy = %d, want 0", r.Op, zc)
		}
	}
}

// echoServe answers every decoded request with an empty OK reply until
// the transport dies — a minimal live server for churn tests.
func echoServe(conn net.Conn) {
	fr := NewFrameReader(conn)
	for {
		payload, err := fr.Next()
		if err != nil {
			return
		}
		q, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		rep := &Reply{Op: q.Op, Tag: q.Tag}
		if q.Op == OpHello {
			rep.Token = "t" // a resumable session, so poison redials instead of latching
		}
		if err := WriteFrame(conn, rep.Encode()); err != nil {
			return
		}
	}
}

// TestResetRacesInFlightGo churns Reset against goroutines issuing Go
// continuously. The race detector owns the memory assertions; the test
// asserts liveness — every call completes exactly once (reply or
// ErrPoisoned), no slot leaks, and the client works after the last
// Reset.
func TestResetRacesInFlightGo(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	go echoServe(srvEnd)
	cli := NewClientOpts(cliEnd, Options{Window: 8})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				call := cli.Go(context.Background(), &Request{Op: OpGetattr, Path: "x"})
				wait(t, call)
				if call.Err != nil && !errors.Is(call.Err, ErrPoisoned) {
					t.Errorf("Go across Reset failed with %v, want nil or ErrPoisoned", call.Err)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		ce, se := net.Pipe()
		go echoServe(se)
		cli.Reset(ce)
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// The window must be fully free again: a burst of exactly window-many
	// calls cannot block.
	var calls []*Call
	for i := 0; i < cli.Window(); i++ {
		calls = append(calls, cli.Go(context.Background(), &Request{Op: OpStatfs}))
	}
	for _, call := range calls {
		wait(t, call)
		if call.Err != nil {
			t.Fatalf("post-churn call: %v", call.Err)
		}
	}
	cli.Close()
}

// TestCloseRacesRedialLoop: Close during an active redial loop must
// terminate the loop and fail held calls instead of leaking the
// goroutine or resurrecting the transport.
func TestCloseRacesRedialLoop(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	go echoServe(srvEnd)
	cli := NewClient(cliEnd)
	dialing := make(chan struct{}, 8)
	if err := cli.EnableRedial(func() (io.ReadWriteCloser, error) {
		dialing <- struct{}{}
		return nil, errors.New("unreachable")
	}, RedialPolicy{BaseDelay: time.Millisecond, Sleep: func(time.Duration) {}}); err != nil {
		t.Fatalf("enable redial: %v", err)
	}

	srvEnd.Close() // kill the transport: the client starts redialing
	<-dialing      // redial loop is live
	call := cli.Go(context.Background(), &Request{Op: OpGetattr, Path: "x"})
	cli.Close()
	wait(t, call)
	if !errors.Is(call.Err, ErrPoisoned) {
		t.Fatalf("call across Close during redial = %v, want ErrPoisoned", call.Err)
	}
	if _, err := cli.Getattr("x"); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("call after Close = %v, want ErrPoisoned", err)
	}
}

// TestUnframeableRequestFailsAlone: a request no server accepts — a READ
// or BREAD of more than MaxData bytes, a WRITE or BWRITE carrying more —
// fails only its own call, with ErrProto, before it takes a window slot,
// a sequence number or a tag. Nothing is written, so the next call on the
// same transport succeeds, and a client with redial armed dials nothing.
func TestUnframeableRequestFailsAlone(t *testing.T) {
	serve := func(conn net.Conn) {
		echoServe(conn)
		conn.Close()
	}
	bad := []*Request{
		{Op: OpBwrite, Handle: 1, Data: make([]byte, MaxData+1)},
		{Op: OpWrite, Handle: 1, Data: make([]byte, MaxFrame)},
		{Op: OpRead, Handle: 1, N: MaxData + 1},
		{Op: OpBread, Handle: 1, N: 1<<32 - 1},
	}
	for _, redial := range []bool{false, true} {
		cliEnd, srvEnd := net.Pipe()
		go serve(srvEnd)
		cli := NewClientOpts(cliEnd, Options{Window: 1})
		var dials atomic.Int32
		if redial {
			err := cli.EnableRedial(func() (io.ReadWriteCloser, error) {
				dials.Add(1)
				ce, se := net.Pipe()
				go serve(se)
				return ce, nil
			}, RedialPolicy{Sleep: func(time.Duration) {}})
			if err != nil {
				t.Fatalf("enable redial: %v", err)
			}
		}
		for _, q := range bad {
			call := wait(t, cli.Go(context.Background(), q))
			if !errors.Is(call.Err, ErrProto) || errors.Is(call.Err, ErrPoisoned) {
				t.Fatalf("redial %v: %s of %d/%d bytes: %v, want ErrProto alone", redial, q.Op, len(q.Data), q.N, call.Err)
			}
			if q.Tag != 0 || q.Seq != 0 {
				t.Fatalf("redial %v: refused %s took tag %d, seq %d", redial, q.Op, q.Tag, q.Seq)
			}
			// The window holds one call: a slot the refused call kept
			// would block this one.
			if _, err := cli.Getattr("x"); err != nil {
				t.Fatalf("redial %v: call after a refused %s: %v", redial, q.Op, err)
			}
		}
		if n := dials.Load(); n != 0 {
			t.Fatalf("redial %v: %d dials", redial, n)
		}
		cli.Close()
	}
}

// TestOverlongStringFailsAlone: a path, second path or token longer than a
// wire string holds is refused like an oversized transfer, instead of
// being cut to its first 65 535 bytes and acting on another name. An
// UNLINK of a 70 002-byte path fails with ErrProto alone, through Go and
// through Unlink, with and without redial, and the next call works with
// zero dials.
func TestOverlongStringFailsAlone(t *testing.T) {
	long := strings.Repeat("a/", 35000) + "zz"
	serve := func(conn net.Conn) {
		echoServe(conn)
		conn.Close()
	}
	for _, redial := range []bool{false, true} {
		cliEnd, srvEnd := net.Pipe()
		go serve(srvEnd)
		cli := NewClientOpts(cliEnd, Options{Window: 1})
		var dials atomic.Int32
		if redial {
			err := cli.EnableRedial(func() (io.ReadWriteCloser, error) {
				dials.Add(1)
				ce, se := net.Pipe()
				go serve(se)
				return ce, nil
			}, RedialPolicy{Sleep: func(time.Duration) {}})
			if err != nil {
				t.Fatalf("enable redial: %v", err)
			}
		}
		refused := func(how string, err error) {
			t.Helper()
			if !errors.Is(err, ErrProto) || errors.Is(err, ErrPoisoned) {
				t.Fatalf("redial %v: %s of a %d-byte path: %v, want ErrProto alone", redial, how, len(long), err)
			}
			if _, err := cli.Getattr("x"); err != nil {
				t.Fatalf("redial %v: call after a refused %s: %v", redial, how, err)
			}
		}
		for _, q := range []*Request{
			{Op: OpUnlink, Path: long},
			{Op: OpRename, Path: "x", Path2: long},
			{Op: OpHello, Token: long},
		} {
			call := wait(t, cli.Go(context.Background(), q))
			refused(q.Op.String(), call.Err)
			if q.Tag != 0 || q.Seq != 0 {
				t.Fatalf("redial %v: refused %s took tag %d, seq %d", redial, q.Op, q.Tag, q.Seq)
			}
		}
		refused("Unlink", cli.Unlink(long))
		if n := dials.Load(); n != 0 {
			t.Fatalf("redial %v: %d dials", redial, n)
		}
		cli.Close()
	}
}
