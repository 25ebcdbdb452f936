#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there. Everything the build and the run write
# (Go build cache, binary, span files) stays under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$out/ufsbench" .
cd "$root"
exec "$out/ufsbench" "$@"
