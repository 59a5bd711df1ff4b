#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash e2ebench/run.sh -workload ds1-pop100-w1 -seed 1 -seconds 40 -trace 0
#
# Everything the build writes (Go build cache, temp files, the binary)
# stays under .bench_build in the repository root. The build never
# fetches a module: the benchmark needs only the repository's own. The
# benchmark runs with GOMAXPROCS=2 unless the caller sets GOMAXPROCS.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	GOPROXY=off GOSUMDB=off
bin="$build/e2ebench"
# Build to a per-process name and rename, so concurrent runs never execute
# a half-written binary.
(cd e2ebench && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
GOMAXPROCS="${GOMAXPROCS:-2}" exec "$bin" "$@"
