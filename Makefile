# Developer checks. `make check` is the gate a change must pass: static
# analysis, a full build, the race-enabled test suite over every package,
# the benchmark module's tests, fsck-style exit codes through a real
# binary, and machine-readable bench runs whose JSON must validate.
#
# Tests run on whole packages, never through a -run filter, so a renamed
# test cannot silently drop out of the gate: `race` runs every package,
# and the other targets add what `go test` cannot check (binaries, exit
# codes, bench documents).

GO ?= go

.PHONY: check vet build test race benchmod scrub repair faults bench-json serve servebench netfaults aging shard

check: vet build race benchmod scrub repair faults serve servebench netfaults aging shard bench-json

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race-enabled suite is the one `make check` gates on: the
# concurrent-mode stress tests (internal/betree/concurrent_test.go, the
# parallel bench runner tests, the fsserve/nettest serving tests) are the
# repo's data-race canaries and are only meaningful under the race
# detector. It also covers the crash sweeps, fault injection and the wire
# goldens. -count=1 keeps the test cache from skipping it.
race:
	$(GO) test -race -count=1 ./...

# The benchmark module's own tests (about 5 s). The benchmark is a separate
# Go module that `go test ./...` above never builds; it reaches into the
# repository only through the seams in benchmark/README.md's "API surface"
# table, so a change to one of them fails here.
benchmod:
	cd benchmark && $(GO) test ./...

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
# -repair keeps the historical exit 3. The library level (scrub-driven
# repair, write-path relocation, the remap table's crash round-trip) is
# in `race`.
repair:
	mkdir -p bin && $(GO) build -o bin/betrfsck ./cmd/betrfsck
	./bin/betrfsck -mode=scrub -badsector=2 -seed=7 -repair > /dev/null
	./bin/betrfsck -mode=scrub -corrupt=2 -seed=9 -repair > /dev/null
	./bin/betrfsck -mode=scrub -badsector=2 -seed=7 > /dev/null 2>&1; test $$? -eq 3

# Deterministic fault-injection sweep (fixed seeds): transient faults
# absorbed by retry, persistent write death degrading mounts read-only,
# silent bit flips recovered by checksum re-reads, bad-sector EIO
# propagation, ENOSPC semantics, the seeded multi-client storm on a
# single concurrent mount across every file system, and the multi-seed
# FaultPlan sweep under -clients (TestSeededFaultPlanSweep) — under the
# race detector (the multi-client sweeps are only meaningful with it).
faults:
	$(GO) test -race -count=1 ./internal/faulttest/

# Network file-service layer (DESIGN.md §11; its conformance,
# backpressure and drain tests are in `race`): a deterministic serve-mode
# bench whose JSON must validate.
serve:
	$(GO) run ./cmd/betrbench -serve -clients 4 -scale 256 -o BENCH_serve.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_serve.json

# Async pipelined wire path (DESIGN.md §13; its client, server, spec
# drift and golden tests are in `race`): a concurrent serve run with the
# pipelined-vs-sync comparison pass whose schema-v4 JSON must validate.
servebench:
	$(GO) run ./cmd/betrbench -serve -workers 8 -clients 4 -scale 256 \
		-o BENCH_serve_pipe.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_serve_pipe.json
	rm -f BENCH_serve_pipe.json

# Wire-level fault injection and session resumption (DESIGN.md §13.9):
# the seeded multi-client torture sweep (mid-frame connection cuts vs a
# fault-free oracle, byte-for-byte) and the exactly-once replay tests
# (DRC hits over re-execution, handle survival, typed lease expiry,
# bounded redial give-up, PING keepalive) — all only meaningful under
# the race detector.
netfaults:
	$(GO) test -race -count=1 ./internal/nettest/

# FTL aging rung (DESIGN.md §12; its discard, FTL and pinned
# write-amplification tests are in `race`): a fast two-system aging run
# whose schema-v3 JSON must validate.
aging:
	$(GO) run ./cmd/betrbench -aging -scale 4096 -systems f2fs,btrfs \
		-o BENCH_aging_smoke.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_aging_smoke.json
	rm -f BENCH_aging_smoke.json

# Scale-out sharded service (DESIGN.md §14; its remote-device
# equivalence, read-cache, block-range, shard-map, conformance and pinned
# shard-rung tests are in `race`): a 3-shard bench run whose schema-v6
# JSON must validate.
shard:
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
