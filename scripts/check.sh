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
#   5. go test -race -short $RACE_PKGS    every package whose state could
#                                          cross host goroutines: the sim
#                                          kernel and runner, the bus, and
#                                          whatever runs inside parallel
#                                          sweep workers (fault injector,
#                                          read-ahead policies, vec
#                                          strategies, volumes, journals,
#                                          the iobench and faultlab
#                                          sweeps themselves); -short
#                                          trims only faultlab's sweeps
#   6. faultlab smoke sweeps               8 crash points over a 2 MB
#                                          write, once per machine shape
#                                          in the loop's list (single
#                                          drive, degraded mirror,
#                                          journaled with replay
#                                          recovery); exits nonzero on
#                                          any crash-consistency
#                                          violation
#   7. coverage summary                    go test -cover over the model
#                                          packages, informational
#
# Usage: scripts/check.sh  (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

# A subsystem that keeps state a parallel sweep could share joins this
# list, once.
RACE_PKGS="./internal/sim/... ./internal/runner/... ./internal/telemetry/...
    ./internal/fault/... ./internal/prefetch/... ./internal/vec/...
    ./internal/vol/... ./internal/wal/... ./internal/iobench/...
    ./internal/faultlab/..."

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

# shellcheck disable=SC2086 # the list is intentionally word-split
echo "==> go test -race -short" $RACE_PKGS
# shellcheck disable=SC2086
go test -race -short $RACE_PKGS

go build -o "$tmp/faultlab" ./cmd/faultlab
for shape in "" "-vol raid1 -degraded 1" "-journal wal"; do
    echo "==> faultlab smoke sweep $shape"
    # shellcheck disable=SC2086 # a shape is a list of flags
    "$tmp/faultlab" -file 2 -fsync 262144 -cuts 8 -seed 7 $shape
done

echo "==> coverage summary (informational)"
go test -cover ./internal/vol/ ./internal/core/ ./internal/ufs/ ./internal/disk/ ./internal/driver/ ./internal/faultlab/ 2>/dev/null | awk '{printf "    %-28s %s\n", $2, $5}'

echo "check: all gates passed"
