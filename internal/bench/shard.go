package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"betrfs/internal/controlplane"
	"betrfs/internal/metrics"
)

// Shard-bench mode: betrbench -shard -shards N builds a prefix-routed
// controlplane deployment — N shards, each a BetrFS v0.6 file node
// mounted over a remote block share through a read cache (DESIGN.md §14)
// — and drives one scripted workload per route through the routing
// client. Deterministic: every machine is a single-worker sim.Env and a
// single driver goroutine issues ops round-robin, so the document is
// bit-identical run to run.
//
// The workload is write phase then shardReadRounds cold re-read rounds,
// with every file node's caches dropped before each round: the re-reads
// then miss the page cache and land on the read cache in front of the
// remote device, which is the layer this rung measures (readcache.hit
// must be nonzero on any healthy run — schema v6 validates that).

// shardReadRounds is the number of cold re-read rounds after the write
// phase. Two rounds: the first fills the read cache (misses), the second
// hits it.
const shardReadRounds = 2

// ShardSystem is the only system the shard rung runs: the full v0.6
// stack is the paper's subject, and the deployment builds it per shard.
const ShardSystem = controlplane.FileSystem

// ShardResult is one shard's row: the wire ops both of its nodes served
// (front-end file ops plus storage-node block ops), its service-time
// percentiles, and its read-cache counters.
type ShardResult struct {
	Shard   int
	Ops     int64         // fsserve.op.count across the shard's two nodes
	SimTime time.Duration // the further of the shard's two machine clocks
	P50     int64         // fsserve.op.ns percentiles, ns
	P95     int64
	P99     int64
	RcHit   int64
	RcMiss  int64
	RcEvict int64
}

// KOpsPerSimSec reports the shard's simulated wire-op throughput.
func (r ShardResult) KOpsPerSimSec() float64 {
	if r.SimTime <= 0 {
		return 0
	}
	return float64(r.Ops) / r.SimTime.Seconds() / 1000
}

// ShardRun is one full rung: per-shard rows and snapshots plus the
// deployment roll-up.
type ShardRun struct {
	Shards   int
	Scale    int64
	Rows     []ShardResult
	Snaps    []metrics.Snapshot // per-shard merged snapshots, Rows order
	Total    metrics.Snapshot   // roll-up: Merge of every Snaps entry
	Ops      int64              // wire calls the driver completed
	WallTime time.Duration
	Errors   []string
}

// driveRoundRobin runs the scripts to completion one synchronous call at
// a time, round-robin across scripts — the deterministic driver the
// single-worker serve and shard modes share.
func driveRoundRobin(cls []*serveClient) {
	for live := true; live; {
		live = false
		for _, d := range cls {
			if d.step() {
				live = true
			}
		}
	}
}

// RunShard runs the deterministic multi-shard rung.
func RunShard(shards int, scale int64) ShardRun {
	if shards < 1 {
		shards = 1
	}
	d := controlplane.New(controlplane.Config{Shards: shards, Scale: scale})
	defer d.Close()
	cli := d.Connect(nil)
	defer cli.Close()

	// A quarter of the serve rung's file count per route keeps the rung's
	// runtime near the serve bench's while every shard still sees enough
	// traffic for stable percentiles.
	files := serveFiles(scale) / 4
	if files < 8 {
		files = 8
	}
	payload := servePayload()

	// One working directory per route: each shard's prefix plus a
	// "catchall" directory the empty prefix routes to shard 0.
	var dirs []string
	for _, rt := range d.Map.Routes() {
		if rt.Prefix == "" {
			dirs = append(dirs, "catchall")
		} else {
			dirs = append(dirs, rt.Prefix)
		}
	}

	run := ShardRun{Shards: shards, Scale: scale}
	wallStart := time.Now()

	collect := func(cls []*serveClient, what string) {
		for i, c := range cls {
			run.Ops += c.ops
			if c.err != nil {
				run.Errors = append(run.Errors, fmt.Sprintf("%s %s: %v", what, dirs[i], c.err))
			}
		}
	}

	writers := make([]*serveClient, len(dirs))
	for i, dir := range dirs {
		writers[i] = &serveClient{cli: cli, steps: append(writeSteps(dir, 0, files, payload), readdirStep(dir))}
	}
	driveRoundRobin(writers)
	collect(writers, "write")

	for round := 0; round < shardReadRounds; round++ {
		// Cold round: without the drop, the file nodes' page caches absorb
		// every re-read and the read cache never sees a request.
		d.DropCaches()
		readers := make([]*serveClient, len(dirs))
		for i, dir := range dirs {
			readers[i] = &serveClient{cli: cli, steps: append(readSteps(dir, round, 2, files, len(payload)), statfsStep)}
		}
		driveRoundRobin(readers)
		collect(readers, fmt.Sprintf("read round %d", round))
	}
	run.WallTime = time.Since(wallStart)

	// The last reply's accounting runs on a serving goroutine after the
	// client's call returns; snapshotting a live server without this
	// barrier races it (nondeterministic resp.bytes/batch.replies).
	d.Quiesce()

	for i := 0; i < shards; i++ {
		snap := d.ShardSnapshot(i)
		simTime := d.Shards[i].FileEnv.Now()
		if st := d.Shards[i].StorageEnv.Now(); st > simTime {
			simTime = st
		}
		h := snap.Histograms["fsserve.op.ns"]
		run.Rows = append(run.Rows, ShardResult{
			Shard:   i,
			Ops:     snap.Counters["fsserve.op.count"],
			SimTime: simTime,
			P50:     h.Quantile(0.50),
			P95:     h.Quantile(0.95),
			P99:     h.Quantile(0.99),
			RcHit:   snap.Counters["readcache.hit"],
			RcMiss:  snap.Counters["readcache.miss"],
			RcEvict: snap.Counters["readcache.evict"],
		})
		run.Snaps = append(run.Snaps, snap)
		run.Total.Merge(snap)
	}
	return run
}

var shardColumns = []column[ShardResult]{
	{"wire_ops", "kop/s", false, func(r ShardResult) float64 { return r.KOpsPerSimSec() }},
	{"p50", "ns", true, func(r ShardResult) float64 { return float64(r.P50) }},
	{"p95", "ns", true, func(r ShardResult) float64 { return float64(r.P95) }},
	{"p99", "ns", true, func(r ShardResult) float64 { return float64(r.P99) }},
	{"rc_hit", "ops", false, func(r ShardResult) float64 { return float64(r.RcHit) }},
	{"rc_miss", "ops", true, func(r ShardResult) float64 { return float64(r.RcMiss) }},
}

// WriteShardTable renders the human-readable shard-bench table: one row
// per shard plus the deployment totals line.
func WriteShardTable(w io.Writer, run ShardRun) {
	fmt.Fprintf(w, "%-14s", "shard")
	for _, c := range shardColumns {
		fmt.Fprintf(w, " | %14s", fmt.Sprintf("%s (%s)", c.Name, c.Unit))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, strings.Repeat("-", 14+len(shardColumns)*17))
	for _, r := range run.Rows {
		fmt.Fprintf(w, "%-14s", fmt.Sprintf("shard%02d", r.Shard))
		for _, c := range shardColumns {
			fmt.Fprintf(w, " | %14.1f", c.Get(r))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "total: %d shards, %d wire calls, readcache hit/miss/evict %d/%d/%d, wall %s\n",
		run.Shards, run.Ops,
		run.Total.Counters["readcache.hit"],
		run.Total.Counters["readcache.miss"],
		run.Total.Counters["readcache.evict"],
		run.WallTime.Truncate(time.Millisecond))
}
