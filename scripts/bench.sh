#!/bin/sh
# bench.sh — host-performance harness for the simulation kernel.
#
# Builds cmd/simbench and measures the kernel's host cost (events/sec,
# allocs/event, context-switch and ping-pong latency, parallel-runner
# scaling, the telemetry bus's zero-subscriber Emit overhead, and the
# adaptive read-ahead policy's decision cost), writing the report to
# BENCH_sim.json at the repo root. Then builds cmd/iobench and writes
# its comparison matrix (read-ahead policy, volume level x stripe,
# Readv strategy x stride, journal mode — see cmd/iobench/matrix.go) to
# BENCH_iobench.json; those numbers are virtual, so the refresh is a
# no-op unless behaviour changed (TestMatrixMatchesCommitted).
#
# Usage: scripts/bench.sh [extra simbench flags]
#   e.g. scripts/bench.sh -reps 12
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "==> go build ./cmd/simbench"
go build -o "$tmp/simbench" ./cmd/simbench

echo "==> simbench"
# Written to a temp path first so an interrupted run cannot leave a
# truncated report behind.
"$tmp/simbench" -o "$tmp/BENCH_sim.json" "$@"

mv "$tmp/BENCH_sim.json" BENCH_sim.json
echo "bench: wrote BENCH_sim.json"

echo "==> go build ./cmd/iobench"
go build -o "$tmp/iobench" ./cmd/iobench

echo "==> iobench -matrix"
"$tmp/iobench" -matrix "$tmp/BENCH_iobench.json"
mv "$tmp/BENCH_iobench.json" BENCH_iobench.json
echo "bench: wrote BENCH_iobench.json"
