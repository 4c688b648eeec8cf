package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestShardDeterministic: the shard rung is single-driver round-robin
// over single-worker machines, so the full JSON document — per-shard
// percentiles, read-cache counters, merged snapshots — must be
// bit-identical run to run.
func TestShardDeterministic(t *testing.T) {
	run := func() []byte {
		r := RunShard(3, 2048)
		if len(r.Errors) != 0 {
			t.Fatalf("shard run failed: %v", r.Errors)
		}
		b, err := ShardDoc("shard", r).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("deterministic shard runs produced different JSON documents")
	}
}

// TestShardDocValidates: a shard run produces a valid v6 document — one
// row per shard, read-cache counters present everywhere, hits recorded
// by the cold re-read rounds, roll-up equal to the per-shard sums — and
// Validate rejects the section on other kinds, a missing section, and a
// forged roll-up.
func TestShardDocValidates(t *testing.T) {
	run := RunShard(3, 2048)
	if len(run.Errors) != 0 {
		t.Fatalf("shard run failed: %v", run.Errors)
	}
	if run.Total.Counters["readcache.hit"] == 0 {
		t.Fatal("cold re-read rounds produced no read-cache hits")
	}
	for _, r := range run.Rows {
		if r.Ops == 0 || r.RcMiss == 0 {
			t.Fatalf("idle shard in a routed workload: %+v", r)
		}
	}
	d := ShardDoc("shard", run)
	b, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Validate(b)
	if err != nil {
		t.Fatalf("shard doc rejected: %v", err)
	}
	if got.Kind != "shard" || got.Shard == nil || got.Shard.Shards != 3 || !got.Shard.Deterministic {
		t.Fatalf("shard section mangled: %+v", got.Shard)
	}
	if len(got.Systems) != 3 || got.Systems[0].System != "shard00" {
		t.Fatalf("shard rows mangled: %d systems", len(got.Systems))
	}

	// Section on the wrong kind.
	md := sampleDoc()
	md.Shard = d.Shard
	mb, err := md.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(mb); err == nil || !strings.Contains(err.Error(), "shard section") {
		t.Fatalf("shard section on micro doc accepted (err=%v)", err)
	}
	// Kind "shard" without the section.
	sb := bytes.Replace(b, []byte(`"shard": {`), []byte(`"notshard": {`), 1)
	if _, err := Validate(sb); err == nil {
		t.Fatal("kind shard without shard section accepted")
	}
	// A roll-up that disagrees with its own shard rows is rejected.
	forged := *d
	forgedInfo := *d.Shard
	forgedInfo.RcHit += 7
	forged.Shard = &forgedInfo
	fb, err := forged.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(fb); err == nil || !strings.Contains(err.Error(), "roll-up") {
		t.Fatalf("forged roll-up accepted (err=%v)", err)
	}
}

// TestShardSingleVsMulti: the rung degrades gracefully to one shard
// (everything routes to shard 0) and spreads creates across three.
func TestShardSingleVsMulti(t *testing.T) {
	one := RunShard(1, 2048)
	if len(one.Errors) != 0 {
		t.Fatalf("single-shard run failed: %v", one.Errors)
	}
	if len(one.Rows) != 1 || one.Rows[0].Ops == 0 {
		t.Fatalf("single-shard rows: %+v", one.Rows)
	}
	three := RunShard(3, 2048)
	creates := func(s int) int64 { return three.Snaps[s].Counters["fsserve.op.create"] }
	if creates(1) == 0 || creates(2) == 0 {
		t.Fatalf("routed creates did not reach all shards: %d/%d/%d", creates(0), creates(1), creates(2))
	}
	// Shard 0 owns its prefix plus the catch-all directory.
	if creates(0) <= creates(1) {
		t.Fatalf("catch-all shard should create most: %d vs %d", creates(0), creates(1))
	}
}

// shardCells are one shard row's pinned cells.
type shardCells struct {
	wireOps       float64
	p50, p95, p99 int64
	rcHit, rcMiss int64
}

// goldenShard2048 pins the deterministic shard rung at -shards 3 -scale
// 2048, one entry per shard: wire_ops, p50, p95, p99, rc_hit, rc_miss.
// Any drift means the sharded block path changed behavior. Regenerate
// with: go run ./cmd/betrbench -shard -shards 3 -scale 2048 (and update
// here in the same commit, explaining why).
var goldenShard2048 = []shardCells{
	{10.581034149820907, 4096, 500000, 500000, 1, 7},
	{7.427917630335814, 4096, 500000, 500000, 0, 6},
	{7.427917630335814, 4096, 500000, 500000, 0, 6},
}

// TestShardGoldenCells asserts every shard row of the rung against the
// pinned goldens with zero tolerance, printing a paste-ready row on
// drift.
func TestShardGoldenCells(t *testing.T) {
	run := RunShard(3, 2048)
	if len(run.Errors) != 0 {
		t.Fatalf("shard run failed: %v", run.Errors)
	}
	if len(run.Rows) != len(goldenShard2048) {
		t.Fatalf("%d shard rows, %d pinned", len(run.Rows), len(goldenShard2048))
	}
	for i, r := range run.Rows {
		got := shardCells{r.KOpsPerSimSec(), r.P50, r.P95, r.P99, r.RcHit, r.RcMiss}
		if want := goldenShard2048[i]; got != want {
			t.Errorf("shard%02d: cells = %+v, want %+v; re-pin as:\n{%#v, %d, %d, %d, %d, %d},",
				i, got, want, got.wireOps, got.p50, got.p95, got.p99, got.rcHit, got.rcMiss)
		}
	}
}
