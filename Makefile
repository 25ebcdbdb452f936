# Extent-like Performance from a UNIX File System — reproduction.
#
# `make check` is the extended tier-1 gate (build + vet + simlint +
# tests + race over internal/...); see scripts/check.sh and ROADMAP.md.

.PHONY: all build test lint race check fuzz bench benchcheck cover loc

all: check

build:
	go build ./...

test:
	go test ./...

# lint runs only the simulation-hygiene analyzers (cmd/simlint).
lint:
	go run ./cmd/simlint ./...

# race is step 5 of scripts/check.sh on its own.
race:
	go test -race -short ./internal/...

check:
	scripts/check.sh

# fuzz gives each fuzz target 30 s of new inputs (their seed corpora run
# in every `go test`). It is not part of `make check`. Shrinking every
# coverage-expanding input is capped at 5 s so the half minute goes to
# searching.
fuzz:
	go test ./internal/ufs -run '^$$' -fuzz '^FuzzPtrPath$$' -fuzztime 30s -fuzzminimizetime 5s
	go test ./internal/ufs -run '^$$' -fuzz '^FuzzFsckRepair$$' -fuzztime 30s -fuzzminimizetime 5s
	go test ./internal/wal -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime 30s -fuzzminimizetime 5s

# bench regenerates BENCH_iobench.json, the committed matrix of virtual
# rates and counters that TestMatrixMatchesCommitted compares byte for
# byte; a diff after running it is a behaviour change to explain. Host
# costs are not committed anywhere: the kernel's are benchmarks beside
# the code (go test -bench . -benchmem ./internal/sim ./internal/telemetry
# ./internal/prefetch) with their allocation counts asserted by tests,
# the full stack's are what bench/ measures.
bench:
	go run ./cmd/iobench -matrix BENCH_iobench.json

# benchcheck runs the schema test of the repository's benchmark (bench/
# is a module of its own, so `go test ./...` never sees it): every
# workload at 1 MB, BENCHMARK.json in step with the catalogues.
benchcheck:
	go -C bench test .

# cover writes a whole-tree coverage profile and prints the per-function
# summary tail plus the total.
cover:
	go test -coverprofile=coverage.out ./...
	go tool cover -func=coverage.out | tail -n 1
	@echo "cover: wrote coverage.out (go tool cover -html=coverage.out to browse)"

# loc prints the two sizes every design-diet PR reports (ROADMAP.md):
# non-test Go lines outside bench/ and testdata/, and the root package's
# With* option constructors.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' -not -path './.bench_build/*' | xargs cat | wc -l | xargs echo "non-test Go lines:"
	@grep -c '^func With' options.go | xargs echo "root With* constructors:"
