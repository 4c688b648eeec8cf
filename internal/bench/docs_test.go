package bench

import (
	"net"
	"os"
	"regexp"
	"sort"
	"testing"

	"betrfs/internal/blockdev"
	"betrfs/internal/blockstore/readcache"
	"betrfs/internal/fsrpc"
	"betrfs/internal/fsserve"
	"betrfs/internal/sim"
)

// metricNameRE matches a backticked metric name in the docs: a known
// layer prefix followed by dot-separated lower-case segments.
var metricNameRE = regexp.MustCompile("`((?:betree|wal|sfl|southbound|blockdev|kmem|vfs|betrfs|flusher|io|scrub|ftl|fsrpc|fsserve|readcache)\\.[a-z0-9_.]+)`")

// documentedMetrics extracts every metric name mentioned in the given
// markdown files.
func documentedMetrics(t *testing.T, paths ...string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		for _, m := range metricNameRE.FindAllStringSubmatch(string(data), -1) {
			out[m[1]] = true
		}
	}
	return out
}

// registeredMetrics builds both betrfs stacks (the v0.6 SFL path and the
// v0.4 southbound path) and unions their registries, which between them
// construct every instrumented layer.
func registeredMetrics() map[string]bool {
	out := map[string]bool{}
	for _, sys := range []string{"betrfs-v0.6", "betrfs-v0.4"} {
		in := Build(sys, 2048)
		for _, n := range in.Env.Metrics.Names() {
			out[n] = true
		}
	}
	// The fault-injection stack registers its io.* counters only when the
	// wrappers are constructed (benchmarks never build them); stack one
	// over a scratch device so the catalog covers those too.
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(4096))
	blockdev.WithRetry(env, blockdev.NewFault(env, dev, blockdev.FaultPlan{}), blockdev.DefaultRetryPolicy())
	// The sharded file node's read cache (§14.4) registers its counters at
	// construction; stand one up over the scratch device.
	readcache.New(env, dev)
	for _, n := range env.Metrics.Names() {
		out[n] = true
	}
	// The serve path's fsrpc.*/fsserve.* instruments register at server
	// construction (§13.7); stand one up over a scratch mount. The
	// client-side resilience counters register at client construction
	// when Options.Metrics is set (§13.9), so build one of those too.
	in := Build("ext4", 256)
	fsserve.New(in.Env, in.Mount, fsserve.DefaultConfig()).Shutdown()
	end, peer := net.Pipe()
	peer.Close()
	fsrpc.NewClientOpts(end, fsrpc.Options{Metrics: in.Env.Metrics}).Close()
	for _, n := range in.Env.Metrics.Names() {
		out[n] = true
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestDocumentedMetricsRegistered diffs the observability docs against
// the live registry in both directions: every metric name DESIGN.md §8 or
// EXPERIMENTS.md documents must be registered by the code, and every
// registered instrument must appear in the DESIGN.md catalog.
func TestDocumentedMetricsRegistered(t *testing.T) {
	documented := documentedMetrics(t, "../../DESIGN.md", "../../EXPERIMENTS.md")
	registered := registeredMetrics()

	for _, n := range sortedKeys(documented) {
		if !registered[n] {
			t.Errorf("documented but not registered by any layer: %s", n)
		}
	}
	for _, n := range sortedKeys(registered) {
		if !documented[n] {
			t.Errorf("registered but missing from the DESIGN.md §8 catalog: %s", n)
		}
	}

	// The load-bearing names the observability chapter leans on must be
	// present on both sides, guarding against a regex or doc restructure
	// silently matching nothing.
	for _, n := range []string{"betree.msg.pushed", "wal.fsync.count", "kmem.buffercache.hit", "io.fault.read", "io.retry.corrupt", "io.retry.exhausted", "io.defect.grown", "scrub.repair.node", "vfs.remount.ro", "fsrpc.pipeline.depth", "fsserve.batch.replies", "fsserve.zerocopy.bytes"} {
		if !documented[n] {
			t.Errorf("expected %s to be documented", n)
		}
		if !registered[n] {
			t.Errorf("expected %s to be registered", n)
		}
	}
}
