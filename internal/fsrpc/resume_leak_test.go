package fsrpc

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// closeTracked wraps a transport and signals the first Close.
type closeTracked struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *closeTracked) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestSupersededResumeClosesDialedConn pins the redial teardown contract:
// when Close supersedes the reconnect generation while a resume handshake
// is in flight, the freshly dialed transport was never installed and must
// be closed by the resume path itself — not leaked.
func TestSupersededResumeClosesDialedConn(t *testing.T) {
	cli, p := newPeer(t)

	gotHello := make(chan struct{})
	release := make(chan struct{})
	dialed := make(chan *closeTracked, 1)
	dial := func() (io.ReadWriteCloser, error) {
		cliEnd, srvEnd := net.Pipe()
		dc := &closeTracked{Conn: cliEnd, closed: make(chan struct{})}
		dialed <- dc
		go func() {
			// Scripted resume peer: accept the HELLO but hold the reply
			// until the test has superseded the generation.
			payload, err := NewFrameReader(srvEnd).Next()
			if err != nil {
				return
			}
			q, err := DecodeRequest(payload)
			if err != nil || q.Op != OpHello {
				return
			}
			close(gotHello)
			<-release
			_ = WriteFrame(srvEnd, (&Reply{Op: OpHello, Tag: q.Tag, Token: q.Token}).Encode())
		}()
		return dc, nil
	}

	// Establish the session on the initial transport so the next transport
	// death enters the redial loop instead of poisoning terminally.
	errc := make(chan error, 1)
	go func() {
		errc <- cli.EnableRedial(dial, RedialPolicy{
			BaseDelay: time.Millisecond,
			Sleep:     func(time.Duration) {},
		})
	}()
	q := p.recv(t)
	p.reply(t, &Reply{Op: OpHello, Tag: q.Tag, Token: "T"})
	if err := <-errc; err != nil {
		t.Fatalf("enable redial: %v", err)
	}

	// Kill the transport: the client dials and starts the resume
	// handshake, which parks on the scripted peer.
	_ = p.conn.Close()
	select {
	case <-gotHello:
	case <-time.After(10 * time.Second):
		t.Fatal("redial never reached the resume handshake")
	}

	// Supersede the generation mid-handshake, then let the reply land:
	// resume must notice it lost and close the dialed transport.
	_ = cli.Close()
	close(release)
	dc := <-dialed
	select {
	case <-dc.closed:
	case <-time.After(10 * time.Second):
		t.Fatal("superseded resume leaked the freshly dialed transport")
	}
}
