# Developer checks. `make check` is the gate a change must pass: static
# analysis, a full build and two cross-builds, the race-enabled test
# suite over every package, the benchmark module's tests, fsck-style exit
# codes through a real binary, and machine-readable bench runs whose JSON
# must validate.
#
# Tests run on whole packages, never through a -run filter, so a renamed
# test cannot silently drop out of the gate: `race` runs every package,
# and the other targets add what `go test` cannot check (binaries, exit
# codes, bench documents).

GO ?= go

.PHONY: check vet build crossbuild test race fuzz benchmod scrub repair faults bench-json serve servebench netfaults aging shard loc

check: vet build crossbuild race fuzz benchmod scrub repair faults serve servebench netfaults aging shard bench-json

# Static analysis, plus the formatting gate: any file gofmt would change
# fails the target (gofmt -l lists it).
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

# The chunk store maps device memory with syscall.Mmap on unix and falls
# back to the heap elsewhere (internal/blockdev/slab_*.go); building for
# Windows and for Apple silicon keeps both sides compiling.
crossbuild:
	GOOS=windows $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...

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

# Native fuzzing: each target searches for new inputs for FUZZTIME, one
# target per invocation (go test -fuzz takes one). `race` replays every
# committed corpus; a crasher found here is written to the package's
# testdata/fuzz/<target>/ directory, where it is committed with its fix.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNode$$' -fuzztime $(FUZZTIME) ./internal/blobfs
	$(GO) test -run '^$$' -fuzz '^FuzzClean$$' -fuzztime $(FUZZTIME) ./internal/keys
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecover$$' -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeAttr$$' -fuzztime $(FUZZTIME) ./internal/betrfs
	$(GO) test -run '^$$' -fuzz '^FuzzValidate$$' -fuzztime $(FUZZTIME) ./internal/bench
	$(GO) test -run '^$$' -fuzz '^FuzzDeserializeNode$$' -fuzztime $(FUZZTIME) ./internal/betree
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBasement$$' -fuzztime $(FUZZTIME) ./internal/betree
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeLeafShell$$' -fuzztime $(FUZZTIME) ./internal/betree
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeInteriorShell$$' -fuzztime $(FUZZTIME) ./internal/betree
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePartition$$' -fuzztime $(FUZZTIME) ./internal/betree
	$(GO) test -run '^$$' -fuzz '^FuzzLoadBlockTable$$' -fuzztime $(FUZZTIME) ./internal/betree
	$(GO) test -run '^$$' -fuzz '^FuzzLoadSuperblock$$' -fuzztime $(FUZZTIME) ./internal/betree
	$(GO) test -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime $(FUZZTIME) ./internal/betree
	$(GO) test -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime $(FUZZTIME) ./internal/extfs
	$(GO) test -run '^$$' -fuzz '^FuzzReadInode$$' -fuzztime $(FUZZTIME) ./internal/extfs
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDir$$' -fuzztime $(FUZZTIME) ./internal/extfs
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSuper$$' -fuzztime $(FUZZTIME) ./internal/extfs
	$(GO) test -run '^$$' -fuzz '^FuzzReplay$$' -fuzztime $(FUZZTIME) ./internal/cowfs
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeUberblock$$' -fuzztime $(FUZZTIME) ./internal/cowfs
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./internal/fsrpc
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReply$$' -fuzztime $(FUZZTIME) ./internal/fsrpc
	$(GO) test -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime $(FUZZTIME) ./internal/fsrpc

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
# race detector (the multi-client sweeps are only meaningful with it), at
# one, two and eight cores like netfaults.
faults:
	$(GO) test -race -count=1 -cpu 1,2,8 ./internal/faulttest/

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
# the seeded multi-client torture sweep (mid-frame connection cuts, the
# served mount checked byte-for-byte against the programs' model) and the exactly-once replay tests
# (DRC hits over re-execution, handle survival, typed lease expiry,
# bounded redial give-up, PING keepalive), and the recycled-call tests
# (the client's call pool across poison, Reset, redial with replay and
# CallTimeout expiry) — all only meaningful under the race detector, and
# run at one, two and eight cores so that the pool is shared across Ps.
netfaults:
	$(GO) test -race -count=1 -cpu 1,2,8 ./internal/nettest/

# FTL aging rung (DESIGN.md §12; its discard, FTL and pinned
# write-amplification tests are in `race`): a fast two-system aging run
# whose schema-v3 JSON must validate, then the bench package with every
# row of EXPERIMENTS.md's aging table regenerated (TestAgingTableDrift;
# without BETRFS_DRIFT=all it regenerates only the betrfs-v0.6 row).
aging:
	$(GO) run ./cmd/betrbench -aging -scale 4096 -systems f2fs,btrfs \
		-o BENCH_aging_smoke.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_aging_smoke.json
	rm -f BENCH_aging_smoke.json
	BETRFS_DRIFT=all $(GO) test -count=1 ./internal/bench

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
# documented in EXPERIMENTS.md. At 1/1024 TokuBench outruns ext4's inode
# table (DESIGN.md §5.5), so the run uses 1/512.
bench-json:
	$(GO) run ./cmd/betrbench -table 1 -scale 512 \
		-systems ext4,betrfs-v0.4,betrfs-v0.6 -o BENCH_micro.json > /dev/null
	$(GO) run ./cmd/betrbench -validate BENCH_micro.json

# Go lines per package and in total, without the benchmark module: the
# first column counts non-test files (the count ROADMAP.md's
# simplification pass reports), the second _test.go files.
loc:
	@find . -name '*.go' ! -path './benchmark/*' -exec wc -l {} + | \
		awk '$$2 != "total" { p = $$2; t = p ~ /_test[.]go$$/; sub("/[^/]*$$", "", p); sub("^[.]/?", "", p); \
			if (p == "") p = "."; pkg[p] = 1; n[p, t] += $$1; sum[t] += $$1 } \
		END { print "  code   test package"; \
			for (p in pkg) printf "%6d %6d %s\n", n[p, 0], n[p, 1], p | "sort -k3"; close("sort -k3"); \
			printf "%6d %6d total\n", sum[0], sum[1] }'
