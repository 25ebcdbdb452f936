#!/bin/sh
# check.sh — the extended tier-1 gate (see ROADMAP.md).
#
# Runs, in order:
#   1. go build ./...                      everything compiles
#   2. go vet ./...                        stock vet findings
#      gofmt -l .                          formatting: any file listed
#                                          fails the gate
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
#                                          the same-seed replay gate, the
#                                          simlint golden tests, the matrix
#                                          gate on BENCH_iobench.json and
#                                          the kernel's zero-allocation
#                                          assertions (statement coverage
#                                          is `make cover`, not a gate)
#      go -C bench test .                  the benchmark's schema test
#                                          (bench/ is its own module, so
#                                          the line above cannot see it;
#                                          also `make benchcheck`)
#   5. go test -race -short ./internal/... every package under internal/,
#                                          so one that starts sharing
#                                          state across a parallel sweep's
#                                          host goroutines is covered the
#                                          day it does, with no list to
#                                          join (also `make race`); -short
#                                          trims only faultlab's sweeps
#   6. faultlab smoke sweeps               8 crash points over a 2 MB
#                                          write, once per machine shape
#                                          in the loop's list (single
#                                          drive, degraded mirror,
#                                          journaled with replay
#                                          recovery); exits nonzero on
#                                          any crash-consistency
#                                          violation
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

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> simlint ./..."
go build -o "$tmp/simlint" ./cmd/simlint
"$tmp/simlint" ./...

echo "==> simlint self-run (internal/analysis/...)"
"$tmp/simlint" internal/analysis/...

echo "==> go test ./..."
go test ./...

echo "==> go -C bench test ."
go -C bench test .

echo "==> go test -race -short ./internal/..."
go test -race -short ./internal/...

go build -o "$tmp/faultlab" ./cmd/faultlab
for shape in "" "-vol raid1 -degraded 1" "-journal wal"; do
    echo "==> faultlab smoke sweep $shape"
    # shellcheck disable=SC2086 # a shape is a list of flags
    "$tmp/faultlab" -file 2 -fsync 262144 -cuts 8 -seed 7 $shape
done

echo "check: all gates passed"
