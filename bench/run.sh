#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through.
# Run from the repository root:
#
#   bash bench/run.sh -workload align_cold -seed 1 -seconds 15 -trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# repository root: the Go build cache, the toolchain's scratch and config
# directories, binaries, bundles, store templates and output. The toolchain
# is used as installed; no toolchain or module download is attempted.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$build/bin/briq-bench" .)
exec "$build/bin/briq-bench" -root . "$@"
