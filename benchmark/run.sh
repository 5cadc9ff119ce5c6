#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the Go toolchain writes (build cache, binary, traces) stays under
# .bench_build/ in the working directory, which must be the repository
# root; the arguments go to the benchmark unchanged.
set -euo pipefail

root=$PWD
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$src" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
