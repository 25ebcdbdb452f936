#!/bin/sh
# check.sh — the extended tier-1 gate (see ROADMAP.md).
#
# Runs, in order:
#   1. go build ./...                      everything compiles
#   2. go vet ./...                        stock vet findings
#   3. simlint ./...                       determinism & simulation-hygiene
#                                          rules (internal/analysis), the
#                                          interprocedural simflow rules
#                                          (blockpath, buspure, timeflow),
#                                          and the stalesuppress meta-rule;
#                                          the tree must be clean or
#                                          explicitly annotated
#      simlint internal/analysis/...       self-run: the analyzers eat
#                                          their own dog food even if the
#                                          main sweep's patterns change
#   4. go test ./...                       the full test suite, including
#                                          the same-seed replay gate and
#                                          the simlint golden tests
#      go -C bench test .                  the benchmark's schema test
#                                          (bench/ is its own module, so
#                                          the line above cannot see it;
#                                          also `make benchcheck`)
#   5. go test -race ./internal/sim/...    the packages that touch host
#      go test -race ./internal/runner/... goroutines and channels
#      go test -race ./internal/telemetry/...  (and the bus, whose
#                                          subscribers run on hot paths)
#      go test -race ./internal/fault/...  (injector runs inline on the
#                                          bus, in parallel sweeps)
#      go test -race ./internal/prefetch/...  (policies are shared across
#                                          parallel iobench cells only by
#                                          mistake; the race run proves a
#                                          per-machine policy never is)
#      go test -race ./internal/vec/...    (vec strategies run inline in
#                                          Readv/Writev across parallel
#                                          sweep cells)
#      go test -race ./internal/vol/... ./internal/faultlab/...
#                                          (volume machines run in
#                                          parallel sweep workers; the
#                                          race run proves no member or
#                                          parity state leaks between
#                                          host goroutines)
#      go test -race ./internal/wal/...    (journaled machines run in
#                                          parallel sweep workers; the
#                                          race run proves log and frame
#                                          state never crosses machines)
#   6. faultlab smoke sweeps               8 crash points over a 2 MB
#                                          write — on the single drive,
#                                          on a degraded mirror, and on
#                                          a journaled machine (replay
#                                          recovery); exits nonzero on
#                                          any crash-consistency
#                                          violation
#   7. coverage summary                    go test -cover over the model
#                                          packages, informational
#
# Usage: scripts/check.sh  (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> simlint ./..."
go build -o "$tmp/simlint" ./cmd/simlint
"$tmp/simlint" ./...

echo "==> simlint self-run (internal/analysis/...)"
"$tmp/simlint" internal/analysis/...

echo "==> go test ./..."
go test ./...

echo "==> go -C bench test ."
go -C bench test .

echo "==> go test -race ./internal/sim/..."
go test -race ./internal/sim/...

echo "==> go test -race ./internal/runner/..."
go test -race ./internal/runner/...

echo "==> go test -race ./internal/telemetry/..."
go test -race ./internal/telemetry/...

echo "==> go test -race ./internal/fault/..."
go test -race ./internal/fault/...

echo "==> go test -race ./internal/prefetch/..."
go test -race ./internal/prefetch/...

echo "==> go test -race ./internal/vec/..."
go test -race ./internal/vec/...

echo "==> go test -race -short ./internal/vol/... ./internal/faultlab/..."
go test -race -short ./internal/vol/... ./internal/faultlab/...

echo "==> go test -race ./internal/wal/..."
go test -race ./internal/wal/...

echo "==> faultlab smoke sweep"
go build -o "$tmp/faultlab" ./cmd/faultlab
"$tmp/faultlab" -file 2 -fsync 262144 -cuts 8 -seed 7

echo "==> faultlab smoke sweep (degraded mirror)"
"$tmp/faultlab" -file 2 -fsync 262144 -cuts 8 -seed 7 -vol raid1 -degraded 1

echo "==> faultlab smoke sweep (journaled, replay recovery)"
"$tmp/faultlab" -file 2 -fsync 262144 -cuts 8 -seed 7 -journal wal

echo "==> coverage summary (informational)"
go test -cover ./internal/vol/ ./internal/core/ ./internal/ufs/ ./internal/disk/ ./internal/driver/ ./internal/faultlab/ 2>/dev/null | awk '{printf "    %-28s %s\n", $2, $5}'

echo "check: all gates passed"
