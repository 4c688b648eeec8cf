#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and
# runs it. Everything the build writes stays inside the checkout: the Go
# build cache, temporary files, GOPATH and the go command's own configuration
# directory (where it keeps its telemetry counters) are pointed there too.
# The build is incremental, so only the first run in a checkout pays for it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" --out "$here/out" "$@"
