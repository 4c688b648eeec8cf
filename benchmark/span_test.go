package main

import (
	"os"
	"path/filepath"
	"testing"
)

// fakeClocks drives a tracer by hand.
type fakeClocks struct{ sim, host int64 }

func (c *fakeClocks) tracer() *tracer {
	tr := newTracer(func() int64 { return c.host })
	tr.simNow = func() int64 { return c.sim }
	return tr
}

func (c *fakeClocks) advance(sim, host int64) { c.sim += sim; c.host += host }

func sumSelf(tr *tracer) (sim, host int64) {
	for _, a := range tr.Whole {
		sim += a.SimSelfNs
		host += a.HostSelfNs
	}
	return sim, host
}

func TestSpanSelfTimesSumToRoot(t *testing.T) {
	var c fakeClocks
	tr := c.tracer()

	// vfs(10) -> engine(5) -> sfl(1) -> ftl(0) -> blockdev(100), with time
	// also spent in each layer after its child returns.
	tr.begin(layerVFS, "write")
	c.advance(10, 1)
	tr.begin(layerEngine, "write_blocks")
	c.advance(5, 2)
	tr.begin(layerSFL, "write")
	c.advance(1, 3)
	tr.begin(layerFTL, "write")
	tr.begin(layerBlockdev, "write")
	c.advance(100, 4)
	tr.end()
	tr.end()
	c.advance(2, 5) // sfl again
	tr.end()
	c.advance(7, 6) // engine again
	tr.end()
	tr.end()

	want := [numLayers]layerAgg{
		layerVFS:      {1, 10, 1},
		layerEngine:   {1, 12, 8},
		layerSFL:      {1, 3, 8},
		layerFTL:      {1, 0, 0},
		layerBlockdev: {1, 100, 4},
	}
	if tr.Whole != want {
		t.Errorf("self times:\n got %+v\nwant %+v", tr.Whole, want)
	}
	if sim, host := sumSelf(tr); sim != c.sim || host != c.host {
		t.Errorf("self sums to sim %d host %d, clocks read %d %d", sim, host, c.sim, c.host)
	}
	if tr.requests != 1 || len(tr.slow) != 1 || len(tr.slow[0].Spans) != 5 {
		t.Fatalf("kept %d requests of %d, want the one with 5 spans", len(tr.slow), tr.requests)
	}
	for i, s := range tr.slow[0].Spans {
		if int(s.Parent) != i-1 {
			t.Errorf("span %d (%s.%s) has parent %d, want %d", i, layerNames[s.Layer], s.Op, s.Parent, i-1)
		}
	}
}

// An asynchronous I/O is a submit span and, later, a wait span: the time
// between them belongs to whoever ran meanwhile, the wait to whoever waits.
func TestSpanAsyncSubmitAndWait(t *testing.T) {
	var c fakeClocks
	tr := c.tracer()
	tr.begin(layerVFS, "read")
	tr.begin(layerEngine, "read_blocks")
	tr.begin(layerSFL, "submit_read")
	tr.begin(layerBlockdev, "submit_read")
	c.advance(1, 1) // queueing the command
	tr.end()
	tr.end()
	c.advance(20, 2) // the engine computes while the device works
	tr.begin(layerSFL, "wait")
	tr.begin(layerBlockdev, "wait")
	c.advance(300, 3) // the clock jumps to the completion
	tr.end()
	tr.end()
	tr.end()
	tr.end()

	if got := tr.Whole[layerBlockdev]; got != (layerAgg{2, 301, 4}) {
		t.Errorf("blockdev: %+v, want 2 calls, 301 sim, 4 host", got)
	}
	if got := tr.Whole[layerEngine]; got != (layerAgg{1, 20, 2}) {
		t.Errorf("engine: %+v, want 1 call, 20 sim, 2 host", got)
	}
	if sim, host := sumSelf(tr); sim != c.sim || host != c.host {
		t.Errorf("self sums to sim %d host %d, clocks read %d %d", sim, host, c.sim, c.host)
	}
	for l, a := range tr.Whole {
		if a.SimSelfNs < 0 || a.HostSelfNs < 0 {
			t.Errorf("%s: negative self time %+v", layerNames[l], a)
		}
	}
}

func TestSpanKeepsSlowestRequestsAndMeasuredPhases(t *testing.T) {
	var c fakeClocks
	tr := c.tracer()
	for i := 1; i <= 3*slowestKept; i++ {
		tr.measured = i%2 == 0
		tr.begin(layerVFS, "op")
		for k := 0; k < 2*maxSpansPerRequest && i == 1; k++ { // one request with too many spans
			tr.begin(layerEngine, "child")
			tr.end()
		}
		c.advance(int64(i), 1)
		tr.end()
	}
	if len(tr.slow) != slowestKept {
		t.Fatalf("kept %d requests, want %d", len(tr.slow), slowestKept)
	}
	for _, r := range tr.slow {
		if r.SimNs <= 2*slowestKept {
			t.Errorf("kept request %d of %d ns; the slowest %d all took longer", r.ID, r.SimNs, slowestKept)
		}
	}
	if got, want := tr.Measured[layerVFS].Calls, int64(3*slowestKept/2); got != want {
		t.Errorf("measured %d vfs calls, want %d", got, want)
	}
	if tr.Whole[layerEngine].Calls != 2*maxSpansPerRequest {
		t.Errorf("aggregated %d engine calls, want all %d", tr.Whole[layerEngine].Calls, 2*maxSpansPerRequest)
	}

	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}
