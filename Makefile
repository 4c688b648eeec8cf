# Developer checks. `make check` is the gate a change must pass: static
# analysis, a full build, the race-enabled test suite, a crash-
# consistency smoke sweep over every file system plus the raw store, and
# a machine-readable bench run whose JSON must validate.

GO ?= go

.PHONY: check vet build test race benchmod crashtest scrub repair faults bench-json serve servebench netfaults aging shard

check: vet build race benchmod crashtest scrub repair faults serve servebench netfaults aging shard bench-json

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race-enabled suite is the one `make check` gates on: the
# concurrent-mode stress tests (internal/betree/concurrent_test.go, the
# parallel bench runner tests) are the repo's data-race canaries and are
# only meaningful under the race detector.
race:
	$(GO) test -race ./...

# The benchmark module's own tests (about 5 s). The benchmark is a separate
# Go module that `go test ./...` above never builds; it reaches into the
# repository only through the seams in benchmark/README.md's "API surface"
# table, so a change to one of them fails here.
benchmod:
	cd benchmark && $(GO) test ./...

# Short crash sweep: prefix/torn/subset crash points on ext4, f2fs,
# btrfs, betrfs-v0.6 and the SFL-backed store, checked against the
# legal-states oracle.
crashtest:
	$(GO) test -race -short -v -run 'Crash|Reorder' ./internal/crashtest/ ./internal/extfs/ ./internal/logfs/ ./internal/cowfs/

# Corruption detection end to end, with fsck-style exit codes: a clean
# image passes (0), injected bit flips are reported as checksum
# corruption (2), a grown media defect as a media error (3), and a mix
# reports the stronger media class (3).
# (`go run` collapses any nonzero child exit to 1, so the exact-code
# assertions need a real binary.)
scrub:
	mkdir -p bin && $(GO) build -o bin/betrfsck ./cmd/betrfsck
	./bin/betrfsck -mode=scrub > /dev/null
	./bin/betrfsck -mode=scrub -corrupt=2 > /dev/null 2>&1; test $$? -eq 2
	./bin/betrfsck -mode=scrub -badsector=1 > /dev/null 2>&1; test $$? -eq 3
	./bin/betrfsck -mode=scrub -corrupt=1 -badsector=1 > /dev/null 2>&1; test $$? -eq 3

# Self-healing storage end to end (DESIGN.md §10.6), with fsck-style
# exit codes pinned through a real binary: a -repair run over
# recoverable damage (bad sectors under cached nodes, checksum flips)
# relocates every image and exits 0, while the same damage without
# -repair keeps the historical exit 3. The race-enabled sweep then
# covers the library level across all five systems: scrub-driven
# repair, write-path relocation, the disabled-relocation negative
# controls, and the remap table's crash round-trip.
repair:
	mkdir -p bin && $(GO) build -o bin/betrfsck ./cmd/betrfsck
	./bin/betrfsck -mode=scrub -badsector=2 -seed=7 -repair > /dev/null
	./bin/betrfsck -mode=scrub -corrupt=2 -seed=9 -repair > /dev/null
	./bin/betrfsck -mode=scrub -badsector=2 -seed=7 > /dev/null 2>&1; test $$? -eq 3
	$(GO) test -race -count=1 -run 'Repair|Relocat|ScrubHook|DefectRemap|RetryExhausted' \
		./internal/faulttest/ ./internal/betree/ ./internal/crashtest/ ./internal/blockdev/

# Deterministic fault-injection sweep (fixed seeds): transient faults
# absorbed by retry, persistent write death degrading mounts read-only,
# silent bit flips recovered by checksum re-reads, bad-sector EIO
# propagation, ENOSPC semantics, the seeded multi-client storm on a
# single concurrent mount across every file system, and the multi-seed
# FaultPlan sweep under -clients (TestSeededFaultPlanSweep) — under the
# race detector (the multi-client sweeps are only meaningful with it).
faults:
	$(GO) test -race -count=1 ./internal/faulttest/

# Network file-service layer: protocol conformance (every wire op vs
# the direct mount, identical statuses/attrs/data including EIO, ENOSPC
# and EROFS mapping, across all five systems), backpressure (EBUSY shed
# on a full queue, queue-wait deadline shed, graceful drain), and the
# multi-client write-death contract under the race detector. Then a
# deterministic serve-mode bench whose JSON must validate.
serve:
	$(GO) test -race -count=1 -run 'Conformance|Saturation|QueueWait|Drain|OverWire|Handle|Sessions|ServeDeterministic|ServeDoc|ServerWriteDeath' \
		./internal/fsrpc/ ./internal/fsserve/ ./internal/faulttest/ ./internal/bench/
	$(GO) run ./cmd/betrbench -serve -clients 4 -scale 256 -o BENCH_serve.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_serve.json

# Async pipelined wire path (DESIGN.md §13): the multiplexing client
# (out-of-order completion, window saturation, transport-death and
# tag-mismatch poison, Reset), pipelined server execution (issue-order
# writes per handle, per-directory namespace ordering, concurrent
# sessions), the scatter-gather frame equivalence, the buffered bench
# transport, the §13 spec drift tests, and the pinned deterministic
# goldens — all under the race detector. Then a concurrent serve run
# with the pipelined-vs-serialized comparison pass whose schema-v4
# JSON must validate.
servebench:
	$(GO) test -race -count=1 \
		-run 'OutOfOrder|WindowSaturation|MidPipeline|TagMismatch|ResetRestarts|FrameParts|Pipelined|BufPipe|WireSpec|DocumentedMetrics|ServeGolden' \
		./internal/fsrpc/ ./internal/fsserve/ ./internal/bench/
	$(GO) run ./cmd/betrbench -serve -workers 8 -clients 4 -scale 256 \
		-o BENCH_serve_pipe.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_serve_pipe.json
	rm -f BENCH_serve_pipe.json

# Wire-level fault injection and session resumption (DESIGN.md §13.9):
# the seeded multi-client torture sweep (mid-frame connection cuts vs a
# fault-free oracle, byte-for-byte), the exactly-once replay tests
# (DRC hits over re-execution, handle survival, typed lease expiry,
# bounded redial give-up, PING keepalive), and the teardown races
# (Reset/Close vs in-flight calls and the redial loop) — all only
# meaningful under the race detector.
netfaults:
	$(GO) test -race -count=1 ./internal/nettest/
	$(GO) test -race -count=1 -run 'ResetRacesInFlightGo|CloseRacesRedialLoop' ./internal/fsrpc/

# FTL aging rung (DESIGN.md §12): discard plumbing correctness under
# the race detector — the crash sweeps over FTL-backed stacks, the
# betree trim-queue rejection/two-generation tests, the FTL unit suite
# — then the pinned write-amplification invariance test, and a fast
# two-system aging run whose schema-v3 JSON must validate.
aging:
	$(GO) test -race -count=1 -run 'Discard|Trim|WAF|GC|FTL|PassThrough|SequentialOverwrite|Composes|CountersDeterministic|SubPage' \
		./internal/ftl/ ./internal/crashtest/ ./internal/betree/ ./internal/bench/
	$(GO) run ./cmd/betrbench -aging -scale 4096 -systems f2fs,btrfs \
		-o BENCH_aging_smoke.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_aging_smoke.json
	rm -f BENCH_aging_smoke.json

# Scale-out sharded service (DESIGN.md §14): the share registry and
# block-class wire ops (ATTACH/BOPEN semantics, handle scoping, discard
# forwarding), remote-vs-local blockstore equivalence (byte-identical
# device images, identical EIO/ENOSPC surfacing through the wire), the
# read cache's hit/miss/evict contract, the prefix shard map, the
# 3-shard wire-vs-direct conformance suite, and the cross-shard
# workload with per-shard metrics roll-up — all under the race
# detector, plus the §14.3 spec drift test and the pinned deterministic
# shard rung. Then a 3-shard bench run whose schema-v6 JSON must
# validate.
shard:
	$(GO) test -race -count=1 ./internal/blockstore/... ./internal/controlplane/
	$(GO) test -race -count=1 -run 'OverWire|Shard|BlockClassSpec|Discard' \
		./internal/fsserve/ ./internal/bench/
	$(GO) run ./cmd/betrbench -shard -shards 3 -scale 2048 \
		-o BENCH_shard_smoke.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_shard_smoke.json
	rm -f BENCH_shard_smoke.json

# Scaled microbenchmark run with machine-readable output: writes
# BENCH_micro.json and fails unless the document round-trips the schema
# documented in EXPERIMENTS.md.
bench-json:
	$(GO) run ./cmd/betrbench -table 1 -scale 1024 \
		-systems ext4,betrfs-v0.4,betrfs-v0.6 -o BENCH_micro.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_micro.json
