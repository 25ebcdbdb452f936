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
# Each step prints the seconds it took and the last line the total.
#
# Usage: scripts/check.sh  (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# step TITLE CMD... runs CMD and prints the seconds it took, so the
# budget ROADMAP.md quotes for the gate is a number the gate prints.
start=$(date +%s)
step() {
    echo "==> $1"
    shift
    t0=$(date +%s)
    "$@"
    echo "    $(($(date +%s) - t0)) s"
}

gofmt_clean() {
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt: these files need formatting:" >&2
        echo "$unformatted" >&2
        return 1
    fi
}

step "go build ./..." go build ./...
step "go vet ./..." go vet ./...
step "gofmt -l ." gofmt_clean
go build -o "$tmp/simlint" ./cmd/simlint
step "simlint ./..." "$tmp/simlint" ./...
step "simlint self-run (internal/analysis/...)" "$tmp/simlint" internal/analysis/...
step "go test ./..." go test ./...
step "go -C bench test ." go -C bench test .
step "go test -race -short ./internal/..." go test -race -short ./internal/...

go build -o "$tmp/faultlab" ./cmd/faultlab
for shape in "" "-vol raid1 -degraded 1" "-journal wal"; do
    # shellcheck disable=SC2086 # a shape is a list of flags
    step "faultlab smoke sweep $shape" "$tmp/faultlab" -file 2 -fsync 262144 -cuts 8 -seed 7 $shape
done

echo "check: all gates passed in $(($(date +%s) - start)) s"
