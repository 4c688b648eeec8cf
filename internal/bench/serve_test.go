package bench

import (
	"bytes"
	"strings"
	"testing"

	"betrfs/internal/metrics"
	"betrfs/internal/systems"
)

// TestServeDeterministic: the single-worker round-robin mode must produce
// a bit-identical JSON document run to run at a fixed seed — percentiles,
// throughput cells, and the full metric snapshot included.
func TestServeDeterministic(t *testing.T) {
	run := func() []byte {
		r, snap := RunServe("betrfs-v0.6", 2048, 4, 1)
		if len(r.Errors) != 0 {
			t.Fatalf("serve run failed: %v", r.Errors)
		}
		d := ServeDoc("serve", 2048, []ServeResult{r}, []metrics.Snapshot{snap})
		b, err := d.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("deterministic serve runs produced different JSON documents")
	}
}

// TestServeDocValidates: a serve document passes Validate and carries the
// serve section; the section is rejected on other kinds.
func TestServeDocValidates(t *testing.T) {
	r, snap := RunServe("ext4", 2048, 2, 1)
	if len(r.Errors) != 0 {
		t.Fatalf("serve run failed: %v", r.Errors)
	}
	if r.Ops == 0 || r.SimTime <= 0 {
		t.Fatalf("empty serve result: %+v", r)
	}
	if r.P50 == 0 || r.P99 < r.P50 {
		t.Fatalf("implausible percentiles: p50=%d p95=%d p99=%d", r.P50, r.P95, r.P99)
	}
	d := ServeDoc("serve", 2048, []ServeResult{r}, []metrics.Snapshot{snap})
	b, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Validate(b)
	if err != nil {
		t.Fatalf("serve doc rejected: %v", err)
	}
	if got.Kind != "serve" || got.Serve == nil || got.Serve.Clients != 2 || !got.Serve.Deterministic {
		t.Fatalf("serve section mangled: %+v", got.Serve)
	}
	if len(got.Systems) != 1 || len(got.Systems[0].Cells) != len(serveColumns) {
		t.Fatalf("serve cells mangled: %+v", got.Systems)
	}
	if got.Systems[0].Metrics.Counters["fsserve.op.count"] == 0 {
		t.Fatal("serve metrics missing fsserve.op.count")
	}

	// A serve section on a micro document must be rejected.
	md := sampleDoc()
	md.Serve = &ServeInfo{Clients: 1, Workers: 1}
	mb, err := md.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(mb); err == nil || !strings.Contains(err.Error(), "serve section") {
		t.Fatalf("serve section on micro doc accepted (err=%v)", err)
	}
	// And kind "serve" without the section too.
	sb := bytes.Replace(b, []byte(`"serve": {`), []byte(`"notserve": {`), 1)
	if _, err := Validate(sb); err == nil {
		t.Fatal("kind serve without serve section accepted")
	}
}

// goldenServe256 pins the deterministic serve-mode cells at -clients 4
// -scale 256 — the exact values the single-worker round-robin driver must
// reproduce bit-for-bit. These are the same figures the seed pipelining
// PR inherited; any drift means the deterministic wire path changed
// behavior. Regenerate with: go run ./cmd/betrbench -serve -clients 4
// -scale 256 (and update here in the same commit, explaining why).
var goldenServe256 = map[string]struct {
	wireOps  float64
	p99, p95 int64
}{
	"ext4":        {43.70468353116473, 820717, 4096},
	"f2fs":        {18.683320531466215, 2097152, 4096},
	"btrfs":       {27.78874532656986, 1331919, 4096},
	"betrfs-v0.4": {28.62265578614326, 1284404, 4096},
	"betrfs-v0.6": {61.283187448574665, 665583, 4096},
}

// TestServeGoldenCells runs the full deterministic serve sweep and
// asserts every system's cells against the pinned goldens with zero
// tolerance: the async client, direct-read fast path, and batched writer
// must leave the workers<=1 wire path bit-identical.
func TestServeGoldenCells(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, sys := range systems.Core {
		want, ok := goldenServe256[sys]
		if !ok {
			t.Fatalf("no golden pinned for %s", sys)
		}
		r, _ := RunServe(sys, 256, 4, 1)
		if len(r.Errors) != 0 {
			t.Fatalf("%s: serve run failed: %v", sys, r.Errors)
		}
		if got := r.KOpsPerSimSec(); got != want.wireOps || r.P99 != want.p99 || r.P95 != want.p95 {
			t.Errorf("%s: wire_ops, p99, p95 = %v, %d, %d, want %v, %d, %d; re-pin as:\n%q: {%#v, %d, %d},",
				sys, got, r.P99, r.P95, want.wireOps, want.p99, want.p95, sys, got, r.P99, r.P95)
		}
		if r.Shed != 0 {
			t.Errorf("%s: shed = %d, want 0", sys, r.Shed)
		}
	}
}

// TestServeConcurrentSmoke: the goroutine-per-client mode completes every
// script without errors and serves ops in overlap.
func TestServeConcurrentSmoke(t *testing.T) {
	r, snap := RunServe("betrfs-v0.6", 2048, 6, 4)
	if len(r.Errors) != 0 {
		t.Fatalf("concurrent serve run failed: %v", r.Errors)
	}
	if r.Workers != 4 || r.Ops == 0 {
		t.Fatalf("unexpected result: %+v", r)
	}
	if snap.Counters["fsserve.op.count"] != r.Ops+snap.Counters["fsserve.deadline.shed"] {
		// Executed ops == successful client calls (retries re-count on
		// both sides; EBUSY sheds never reach execute).
		t.Fatalf("op accounting mismatch: served %d, clients saw %d",
			snap.Counters["fsserve.op.count"], r.Ops)
	}
}
