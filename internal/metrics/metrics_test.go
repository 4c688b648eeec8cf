package metrics

import (
	"encoding/json"
	"testing"
	"time"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("layer.noun.verb")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("layer.noun.verb") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("layer.level.now")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	h := r.Histogram("layer.op.bytes", "bytes")
	for _, v := range []int64{1, 2, 3, 4, 4096, -9} {
		h.Observe(v)
	}
	hs := r.Snapshot().Histograms["layer.op.bytes"]
	if hs.Count != 6 {
		t.Fatalf("hist count = %d, want 6", hs.Count)
	}
	if hs.Sum != 1+2+3+4+4096 {
		t.Fatalf("hist sum = %d", hs.Sum)
	}
	if hs.Unit != "bytes" {
		t.Fatalf("hist unit = %q", hs.Unit)
	}
}

func TestBucketFor(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for v, want := range cases {
		if got := bucketFor(v); got != want {
			t.Errorf("bucketFor(%d) = %d, want %d", v, got, want)
		}
	}
	// Every sample must land in a bucket whose upper bound covers it.
	for _, v := range []int64{1, 7, 100, 1 << 40, 1<<62 + 5} {
		b := bucketFor(v)
		if ub := bucketUpperBound(b); v > ub {
			t.Errorf("bucketFor(%d) = %d with upper bound %d < sample", v, b, ub)
		}
	}
}

func TestSnapshotDiffMerge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b.c")
	h := r.Histogram("a.b.bytes", "bytes")
	c.Add(10)
	h.Observe(100)
	before := r.Snapshot()
	c.Add(5)
	h.Observe(200)
	h.Observe(300)
	after := r.Snapshot()

	d := Diff(before, after)
	if d.Counters["a.b.c"] != 5 {
		t.Fatalf("diff counter = %d, want 5", d.Counters["a.b.c"])
	}
	hd := d.Histograms["a.b.bytes"]
	if hd.Count != 2 || hd.Sum != 500 {
		t.Fatalf("diff hist = %+v, want count 2 sum 500", hd)
	}

	var total Snapshot
	total.Merge(before)
	total.Merge(after)
	if total.Counters["a.b.c"] != 25 {
		t.Fatalf("merged counter = %d, want 25", total.Counters["a.b.c"])
	}
	ht := total.Histograms["a.b.bytes"]
	if ht.Count != 4 || ht.Sum != 700 || ht.Max != 300 {
		t.Fatalf("merged hist = %+v", ht)
	}

	// Snapshots must round-trip through JSON without loss.
	blob, err := json.Marshal(after)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a.b.c"] != 15 || back.Histograms["a.b.bytes"].Sum != 600 {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}

// TestNamesSorted checks that a snapshot names every registered
// instrument, unset ones included, and that its JSON lists them sorted.
func TestNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.z.z")
	r.Counter("b.b.b")
	r.Gauge("a.a.a")
	r.Histogram("m.m.ns", "ns")
	blob, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"counters":{"b.b.b":0,"z.z.z":0},"gauges":{"a.a.a":0},"histograms":{"m.m.ns":{"unit":"ns","count":0,"sum":0,"max":0}}}`
	if string(blob) != want {
		t.Fatalf("snapshot = %s, want %s", blob, want)
	}
}

func TestTraceRing(t *testing.T) {
	r := NewRegistry()
	if r.Tracing() {
		t.Fatal("tracing should start disabled")
	}
	r.Emit(Event{Op: "dropped-before-start"})
	r.StartTrace(4)
	for i := 0; i < 6; i++ {
		r.Emit(Event{When: time.Duration(i), Layer: "l", Op: "op", Value: int64(i)})
	}
	if got := r.TraceDropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	evs := r.TraceEvents()
	if len(evs) != 4 {
		t.Fatalf("len(events) = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Value != int64(i+2) {
			t.Fatalf("events out of order: %+v", evs)
		}
	}
	evs = r.StopTrace()
	if len(evs) != 4 || r.Tracing() {
		t.Fatal("StopTrace should return events and disable tracing")
	}
	if got := r.TraceEvents(); got != nil {
		t.Fatalf("events after stop = %v", got)
	}
}
