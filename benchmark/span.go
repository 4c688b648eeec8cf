package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The tracer records one span per call that crosses a layer seam. The
// stack under test is single-goroutine in the traced (simulated)
// workloads, so the open spans form a stack and a span's parent is the
// span that was open when it began. Self time is duration minus the
// durations of direct children, aggregated as spans close; only the 64
// slowest top-level requests keep their full span trees.

type layer uint8

const (
	layerVFS layer = iota
	layerEngine
	layerSFL
	layerFTL
	layerBlockdev
	numLayers
)

var layerNames = [numLayers]string{"vfs", "engine", "sfl", "ftl", "blockdev"}

// layerAgg is one layer's running totals.
type layerAgg struct {
	Calls      int64 `json:"calls"`
	SimSelfNs  int64 `json:"sim_self_ns"`
	HostSelfNs int64 `json:"host_self_ns"`
}

// span is one closed call. Parent is an index into the same request's
// span list, -1 for the request's root.
type span struct {
	ID        int32
	Parent    int32
	Layer     layer
	Op        string
	SimStart  int64
	SimEnd    int64
	HostStart int64
	HostEnd   int64
}

// request is the span tree under one top-level call.
type request struct {
	ID      int64 // ordinal of the top-level call
	SimNs   int64
	Spans   []span
	Dropped int // spans beyond maxSpansPerRequest, counted but not kept
}

const (
	slowestKept        = 64
	maxSpansPerRequest = 4096
)

type openSpan struct {
	layer               layer
	idx                 int32 // index in cur, -1 when dropped
	simStart, hostStart int64
	childSim, childHost int64
}

type tracer struct {
	simNow  func() int64
	hostNow func() int64

	open     []openSpan
	measured bool // inside a measured phase

	// Whole is every span since the tracer was made; Measured only those
	// closed inside measured phases.
	Whole    [numLayers]layerAgg
	Measured [numLayers]layerAgg

	requests   int64
	cur        []span
	curDropped int
	slow       slowHeap
}

// newTracer returns a tracer on the given host clock. The simulated clock
// is attached by buildStack, which creates it.
func newTracer(hostNow func() int64) *tracer {
	return &tracer{hostNow: hostNow}
}

func (t *tracer) begin(l layer, op string) {
	idx := int32(-1)
	sim, host := t.simNow(), t.hostNow()
	if len(t.cur) < maxSpansPerRequest {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].idx
		}
		idx = int32(len(t.cur))
		t.cur = append(t.cur, span{ID: idx, Parent: parent, Layer: l, Op: op, SimStart: sim, HostStart: host})
	} else {
		t.curDropped++
	}
	t.open = append(t.open, openSpan{layer: l, idx: idx, simStart: sim, hostStart: host})
}

func (t *tracer) end() {
	sim, host := t.simNow(), t.hostNow()
	n := len(t.open) - 1
	o := t.open[n]
	t.open = t.open[:n]
	simDur, hostDur := sim-o.simStart, host-o.hostStart
	t.add(&t.Whole[o.layer], simDur-o.childSim, hostDur-o.childHost)
	if t.measured {
		t.add(&t.Measured[o.layer], simDur-o.childSim, hostDur-o.childHost)
	}
	if o.idx >= 0 {
		t.cur[o.idx].SimEnd, t.cur[o.idx].HostEnd = sim, host
	}
	if n > 0 {
		t.open[n-1].childSim += simDur
		t.open[n-1].childHost += hostDur
		return
	}
	t.closeRequest(simDur)
}

func (t *tracer) add(a *layerAgg, simSelf, hostSelf int64) {
	a.Calls++
	a.SimSelfNs += simSelf
	a.HostSelfNs += hostSelf
}

// closeRequest keeps the finished top-level call's span tree if it is one
// of the slowest so far.
func (t *tracer) closeRequest(simDur int64) {
	id := t.requests
	t.requests++
	if len(t.slow) < slowestKept || simDur > t.slow[0].SimNs {
		r := request{ID: id, SimNs: simDur, Spans: append([]span(nil), t.cur...), Dropped: t.curDropped}
		if len(t.slow) < slowestKept {
			heap.Push(&t.slow, r)
		} else {
			t.slow[0] = r
			heap.Fix(&t.slow, 0)
		}
	}
	t.cur = t.cur[:0]
	t.curDropped = 0
}

// slowHeap is a min-heap on SimNs, so the root is the request to evict.
type slowHeap []request

func (h slowHeap) Len() int           { return len(h) }
func (h slowHeap) Less(i, j int) bool { return h[i].SimNs < h[j].SimNs }
func (h slowHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slowHeap) Push(x any)        { *h = append(*h, x.(request)) }
func (h *slowHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// chromeEvent is one Chrome trace-event ("X" = complete event). ts and dur
// are on the simulated clock in microseconds; the host clock rides in args.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the kept span trees to path, one thread per request.
func (t *tracer) writeChrome(path string) error {
	var events []chromeEvent
	for _, r := range t.slow {
		for _, s := range r.Spans {
			events = append(events, chromeEvent{
				Name: s.Op, Cat: layerNames[s.Layer], Ph: "X",
				Ts: float64(s.SimStart) / 1e3, Dur: float64(s.SimEnd-s.SimStart) / 1e3,
				Pid: 1, Tid: r.ID,
				Args: map[string]any{
					"id": s.ID, "parent": s.Parent, "request": r.ID,
					"host_start_ns": s.HostStart, "host_end_ns": s.HostEnd,
					"spans_dropped": r.Dropped,
				},
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
