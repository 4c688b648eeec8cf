package fsserve

import (
	"io"
	"testing"

	"betrfs/internal/fsrpc"
	"betrfs/internal/sim"
)

// sinkConn is a transport that accepts every write and never reads.
type sinkConn struct{}

func (sinkConn) Read([]byte) (int, error)    { return 0, io.EOF }
func (sinkConn) Write(p []byte) (int, error) { return len(p), nil }
func (sinkConn) Close() error                { return nil }

// TestReplyScratchSurvivesTheWrite: a reply written on the fast path goes
// through net.Buffers, whose write consumes the segments in place. The
// scratch buffer returned to the pool afterwards must still be the one the
// reply was encoded into, not the consumed (nil) segment; otherwise every
// later reply allocates its scratch anew. A buffer put in the pool just
// before sendReply is almost always the one it gets back, so fifty rounds
// catch a pool that keeps the consumed segment.
func TestReplyScratchSurvivesTheWrite(t *testing.T) {
	srv := New(sim.NewEnv(1), nil, DefaultConfig())
	defer srv.Shutdown()
	s := newSession(srv, sinkConn{})
	defer s.close()
	reply := &fsrpc.Reply{Op: fsrpc.OpLookup, Tag: 1, Handle: 2, Attr: fsrpc.Attr{Size: 3, Nlink: 1}}
	for i := 0; i < 50; i++ {
		buf := make([]byte, 0, 256)
		hdrBufPool.Put(&buf)
		s.sendReply(reply, nil, nil)
		if cap(buf) != 256 || len(buf) != 0 {
			t.Fatalf("round %d: pooled scratch came back with len %d, cap %d; want the empty 256-byte buffer", i, len(buf), cap(buf))
		}
	}
}
