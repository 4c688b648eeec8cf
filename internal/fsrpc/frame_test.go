package fsrpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// fullRequest is a request of op with every field set; the encoder writes
// only the ones op defines.
func fullRequest(op Op) *Request {
	return &Request{Op: op, Tag: 77, Seq: 5, Path: "dir/file", Path2: "dir/other",
		Handle: 9, Off: 4096, N: 512, Data: []byte("payload"), Flags: LookupOpen,
		Token: "session-token", Len: 8192}
}

// fullReply is fullRequest for replies.
func fullReply(op Op) *Reply {
	return &Reply{Op: op, Tag: 77, Handle: 5,
		Attr: Attr{Dir: true, Size: 4096, Nlink: 2, Mtime: 9},
		N:    512, Data: []byte("payload"), Entries: []DirEnt{{Name: "a", Dir: true}, {Name: "b"}},
		Statfs: Statfs{BlockSize: 4096, SimTimeNs: 3, Degraded: true, Sessions: 2, OpsServed: 8},
		Token:  "session-token", Lease: 1e9, Resumed: true, Size: 1 << 20}
}

// TestRequestFrameIsLenEncode: for every op, appendFrame appends exactly
// len ‖ Encode() to what the buffer already holds, and refuses a frame
// over MaxFrame.
func TestRequestFrameIsLenEncode(t *testing.T) {
	for _, op := range Ops {
		q := fullRequest(op)
		payload := q.Encode()
		want := binary.BigEndian.AppendUint32([]byte("kept"), uint32(len(payload)))
		want = append(want, payload...)
		got, err := q.appendFrame([]byte("kept"))
		if err != nil {
			t.Fatalf("%s: appendFrame: %v", op, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: frame differs from len ‖ Encode()", op)
		}
	}
	q := &Request{Op: OpWrite, Data: make([]byte, MaxFrame)}
	if _, err := q.appendFrame(nil); !errors.Is(err, ErrProto) {
		t.Fatalf("oversized request frame = %v, want EPROTO", err)
	}
}

// TestDecodedMessagesDoNotAliasPayload: a frame reader hands out its
// payload buffer only until the next frame, so for every op a decoded
// request or reply must not change when its payload is overwritten.
func TestDecodedMessagesDoNotAliasPayload(t *testing.T) {
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xa5
		}
	}
	for _, op := range Ops {
		payload := fullRequest(op).Encode()
		want, err := DecodeRequest(bytes.Clone(payload))
		if err != nil {
			t.Fatalf("%s request: %v", op, err)
		}
		got, _ := DecodeRequest(payload)
		scribble(payload)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s request changed with its payload:\n got %+v\nwant %+v", op, got, want)
		}

		payload = fullReply(op).Encode()
		wantR, err := DecodeReply(bytes.Clone(payload))
		if err != nil {
			t.Fatalf("%s reply: %v", op, err)
		}
		gotR, _ := DecodeReply(payload)
		scribble(payload)
		if !reflect.DeepEqual(gotR, wantR) {
			t.Fatalf("%s reply changed with its payload:\n got %+v\nwant %+v", op, gotR, wantR)
		}
	}
}

// loop is an endless stream of the same bytes.
type loop struct {
	b   []byte
	off int
}

func (l *loop) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// TestFrameReaderReusesItsBuffer: reading a stream of small frames
// allocates nothing per frame once the payload buffer has grown.
func TestFrameReaderReusesItsBuffer(t *testing.T) {
	var stream []byte
	for _, op := range []Op{OpGetattr, OpWrite, OpRename, OpRead} {
		frame, err := fullRequest(op).appendFrame(nil)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, frame...)
	}
	fr := NewFrameReader(&loop{b: stream})
	if n := testing.AllocsPerRun(100, func() {
		if _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("FrameReader.Next makes %v allocations per frame, want 0", n)
	}
}

// writeCounter counts the Write calls made on a transport.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestEveryRequestIsOneWrite: each request frame reaches the transport in
// exactly one Write, for every op and for the frames a resume replays.
func TestEveryRequestIsOneWrite(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	first := &writeCounter{Conn: cliEnd}
	cli := NewClient(first)
	defer cli.Close()
	go echoServe(srvEnd)
	for _, op := range Ops {
		before := first.writes.Load()
		if call := wait(t, cli.Go(context.Background(), fullRequest(op))); call.Err != nil {
			t.Fatalf("%s: %v", op, call.Err)
		}
		if n := first.writes.Load() - before; n != 1 {
			t.Fatalf("%s request took %d writes, want 1", op, n)
		}
	}

	// Replay: calls in flight when the transport dies are written again on
	// the next one, each in one Write after the one-Write HELLO.
	cli2, p := newPeer(t)
	defer cli2.Close()
	redialed := make(chan *writeCounter, 1)
	dial := func() (io.ReadWriteCloser, error) {
		cliEnd, srvEnd := net.Pipe()
		wc := &writeCounter{Conn: cliEnd}
		go echoServe(srvEnd)
		redialed <- wc
		return wc, nil
	}
	errc := make(chan error, 1)
	go func() { errc <- cli2.EnableRedial(dial, RedialPolicy{Sleep: func(time.Duration) {}}) }()
	q := p.recv(t)
	p.reply(t, &Reply{Op: OpHello, Tag: q.Tag, Token: "T"})
	if err := <-errc; err != nil {
		t.Fatalf("enable redial: %v", err)
	}
	ops := []Op{OpWrite, OpCreate, OpGetattr, OpRename}
	var calls []*Call
	for _, op := range ops {
		calls = append(calls, cli2.Go(context.Background(), fullRequest(op)))
		p.recv(t)
	}
	_ = p.conn.Close()
	for _, call := range calls {
		if wait(t, call); call.Err != nil {
			t.Fatalf("replayed %s: %v", call.Req.Op, call.Err)
		}
	}
	if n := (<-redialed).writes.Load(); n != int64(1+len(ops)) {
		t.Fatalf("resume took %d writes for a HELLO and %d replays, want %d", n, len(ops), 1+len(ops))
	}
}

// TestHandshakeHandsItsBufferToTheReader: the server's HELLO reply and the
// reply after it arrive in one write. The resume handshake reads the
// first through the transport's frame reader, which buffers the second
// too; the reader goroutine must take over that same frame reader, or the
// second reply is lost and its call never completes.
func TestHandshakeHandsItsBufferToTheReader(t *testing.T) {
	cli, p := newPeer(t)
	defer cli.Close()
	dial := func() (io.ReadWriteCloser, error) {
		cliEnd, srvEnd := net.Pipe()
		go func() {
			fr := NewFrameReader(srvEnd)
			payload, err := fr.Next()
			if err != nil {
				return
			}
			q, err := DecodeRequest(payload)
			if err != nil || q.Op != OpHello {
				return
			}
			// Tags 1 and 2 belong to the handshake on a new transport, so
			// the replayed call is tag 3. Answer it before it arrives.
			hello, _, _ := (&Reply{Op: OpHello, Tag: q.Tag, Token: q.Token}).Frame(nil)
			next, _, _ := (&Reply{Op: OpGetattr, Tag: 3, Attr: Attr{Size: 42}}).Frame(nil)
			if _, err := srvEnd.Write(append(hello, next...)); err != nil {
				return
			}
			for {
				if _, err := fr.Next(); err != nil {
					return
				}
			}
		}()
		return cliEnd, nil
	}
	errc := make(chan error, 1)
	go func() { errc <- cli.EnableRedial(dial, RedialPolicy{Sleep: func(time.Duration) {}}) }()
	q := p.recv(t)
	p.reply(t, &Reply{Op: OpHello, Tag: q.Tag, Token: "T"})
	if err := <-errc; err != nil {
		t.Fatalf("enable redial: %v", err)
	}
	call := cli.Go(context.Background(), &Request{Op: OpGetattr, Path: "f"})
	p.recv(t)
	_ = p.conn.Close()
	if wait(t, call); call.Err != nil || call.Reply.Attr.Size != 42 {
		t.Fatalf("reply behind the HELLO: %+v, %v; want size 42", call.Reply, call.Err)
	}
}
