package main

import "encoding/json"

// The catalogue: every workload and metric the benchmark defines, in the
// shape BENCHMARK.json publishes them (bench_test.go keeps the two
// equal). README.md holds the reasons, the interaction table and the
// measurements the bounds rest on.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"seq_io", "one file 5x either cache, written then read cold in ~1 MiB calls: bandwidth-bound data path (write-back, read-ahead, by-reference inserts, direct I/O); messages, log and namespace idle"},
	{"rand_io", "32 rounds of random 4 KiB overwrites (80% of that file's blocks in all) and 4-byte blind writes, each read back cold at random: message path one way, query path back, node cache 5x too small"},
	{"tree_ops", "20000 small files in a fanout-128 tree created, walked cold, renamed and deleted; logs 1.5x the log region, so it alone runs past log wrap into reclaim and checkpointing; no bulk data"},
	{"serve_mix", "two closed-loop clients over loopback TCP on a 16 MiB set that fits both caches: the engine idles; codec, framing, syscalls, goroutine hand-offs and the mount lock do the work"},
}

type endToEndSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is every metric a run without tracing reports, on every
// workload. sim_write_s, sim_read_s, write_amp and read_amp are on the
// simulated clock; the rest are the host's. Bounds: README.md "Bounds".
var endToEnd = []endToEndSpec{
	{"setup_s", "s", lower, 0.25},
	{"sim_write_s", "s", lower, 0.12},
	{"sim_read_s", "s", lower, 0.08},
	{"write_amp", "ratio", lower, 0.10},
	{"read_amp", "ratio", lower, 0.10},
	{"host_cpu_s", "s", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.08},
	{"alloc_bytes_per_op", "B", lower, 0.10},
	{"peak_rss_mb", "MiB", lower, 0.25},
	{"p50_us", "us", lower, 0.25},
}

type perLayerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// registryMetric is a per-layer metric read from the registry's delta over
// the measured phases: num alone, or num over the sum of den. Names are
// DESIGN.md §8's; histograms appear flattened (name.sum, name.p50, ...).
type registryMetric struct {
	perLayerSpec
	num string
	den []string
}

func count(name string) registryMetric {
	return registryMetric{perLayerSpec{name, "count", lower}, name, nil}
}

func bytesOf(name string) registryMetric {
	return registryMetric{perLayerSpec{name, "B", lower}, name, nil}
}

func ratio(name, better, num string, den ...string) registryMetric {
	return registryMetric{perLayerSpec{name, "ratio", better}, num, den}
}

var registryMetrics = []registryMetric{
	ratio("vfs.dcache.hit_ratio", higher, "vfs.dcache.hit", "vfs.lookup.count"),
	count("vfs.page.evict"),
	count("vfs.page.cow"),
	count("vfs.write.blind"),
	count("vfs.write.rmw"),

	count("betrfs.meta.query"),
	count("betrfs.create.deferred"),
	count("betrfs.rangedelete.dir"),
	count("betrfs.rename.keys"),
	count("betrfs.fsync.checkpoint"),

	count("betree.msg.inject"),
	count("betree.msg.flush"),
	ratio("betree.flush_per_inject_ratio", lower, "betree.msg.flush", "betree.msg.inject"),
	count("betree.msg.pushed"),
	count("betree.node.read"),
	count("betree.node.write"),
	count("betree.basement.read"),
	bytesOf("betree.bytes.read"),
	bytesOf("betree.bytes.written"),
	ratio("betree.cache.hit_ratio", higher, "betree.cache.hit", "betree.cache.hit", "betree.cache.miss"),
	count("betree.cache.evictdirty"),
	count("betree.checkpoint.run"),
	ratio("betree.prefetch.hit_ratio", higher, "betree.prefetch.hit", "betree.prefetch.issue"),
	count("betree.pacman.drop"),
	count("betree.leaf.split"),

	count("wal.append.count"),
	count("wal.fsync.count"),
	bytesOf("wal.bytes.logged"),
	bytesOf("wal.bytes.pad"),
	count("wal.reclaim.pinblocked"),

	count("kmem.alloc.kmalloc"),
	count("kmem.alloc.vmalloc"),
	ratio("kmem.buffercache.hit_ratio", higher, "kmem.buffercache.hit", "kmem.buffercache.hit", "kmem.buffercache.miss"),
	bytesOf("kmem.bytes.copied"),

	bytesOf("sfl.write.bytes"),
	bytesOf("sfl.read.bytes"),
	count("sfl.flush.count"),
	bytesOf("sfl.discard.bytes"),

	count("ftl.gc.run"),
	bytesOf("ftl.gc.moved.bytes"),
	count("ftl.erase.count"),
	bytesOf("ftl.trim.bytes"),

	ratio("blockdev.write.seq_ratio", higher, "blockdev.write.seq", "blockdev.write.seq", "blockdev.write.rand"),
	ratio("blockdev.read.seq_ratio", higher, "blockdev.read.seq", "blockdev.read.seq", "blockdev.read.rand"),
	count("blockdev.flush.count"),

	// The wire layers' own counters (serve_mix).
	bytesOf("fsrpc.req.bytes"),
	bytesOf("fsrpc.resp.bytes"),
	count("fsrpc.status.err"),
	{perLayerSpec{"fsrpc.pipeline.depth.mean", "count", higher}, "fsrpc.pipeline.depth.sum", []string{"fsrpc.pipeline.depth.count"}},
	{perLayerSpec{"fsserve.batch.replies.mean", "count", higher}, "fsserve.batch.replies.sum", []string{"fsserve.batch.replies.count"}},
	bytesOf("fsserve.zerocopy.bytes"),
	count("fsserve.queue.shed"),
	{perLayerSpec{"fsserve.op.ns.p50", "ns", lower}, "fsserve.op.ns.p50", nil},
	{perLayerSpec{"fsserve.op.ns.p99", "ns", lower}, "fsserve.op.ns.p99", nil},
}

// engineIOMetrics is the engine's storage traffic, split by the backing
// file it goes to.
var engineIOMetrics = []perLayerSpec{
	{"engine.log.write_bytes", "B", lower},
	{"engine.log.flushes", "count", lower},
	{"engine.meta.write_bytes", "B", lower},
	{"engine.meta.read_bytes", "B", lower},
	{"engine.data.write_bytes", "B", lower},
	{"engine.data.read_bytes", "B", lower},
}

// perLayer lists every metric a traced run reports, in report order.
func perLayer() []perLayerSpec {
	var out []perLayerSpec
	for _, l := range layerNames {
		out = append(out,
			perLayerSpec{l + ".calls", "count", lower},
			perLayerSpec{l + ".sim_self_s", "s", lower},
			perLayerSpec{l + ".host_self_s", "s", lower})
	}
	out = append(out, engineIOMetrics...)
	out = append(out,
		perLayerSpec{"sim.max_op_ms", "ms", lower},
		perLayerSpec{"ns.rename.sim_s", "s", lower},
		perLayerSpec{"ns.delete.sim_s", "s", lower},
		perLayerSpec{"blockdev.busy_s", "s", lower},
		perLayerSpec{"blockdev.mapped_bytes", "B", lower})
	for _, m := range registryMetrics {
		out = append(out, m.perLayerSpec)
	}
	for _, d := range layerDrivers() {
		out = append(out,
			perLayerSpec{d.name + ".host_ns_per_op", "ns", lower},
			perLayerSpec{d.name + ".allocs_per_op", "count", lower})
	}
	out = append(out,
		perLayerSpec{"wire.client.writes", "count", lower},
		perLayerSpec{"wire.server.writes", "count", lower},
		perLayerSpec{"wire.bytes_per_op", "B", lower},
		perLayerSpec{"serve.engine.host_s", "s", lower},
		perLayerSpec{"serve.wire.host_s", "s", lower},
		perLayerSpec{"serve.wall_ops_per_s", "op/s", higher})
	for _, c := range classNames {
		out = append(out,
			perLayerSpec{"serve." + c + ".p50_us", "us", lower},
			perLayerSpec{"serve." + c + ".p99_us", "us", lower})
	}
	return out
}

// runSeconds is BENCHMARK.json's run_seconds: how much host time a run
// measures before it stops starting trials.
const runSeconds = 10

// benchmarkJSON renders the catalogue as BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []endToEndSpec `json:"end_to_end"`
		PerLayer   []perLayerSpec `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
