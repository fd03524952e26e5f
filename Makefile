# ACACIA reproduction — common workflows.

GO ?= go

.PHONY: all build vet vet-escape test race cover fmt-check bench benchmark loc loc-check results results-csv examples clean

all: build vet test

build:
	$(GO) build ./...

# go vet for generic mistakes, acacia-vet for the repo's own contracts:
# per-file rules (virtual time, seeded randomness, sorted map output,
# metric grammar, exec-only goroutines) plus the interprocedural rules over
# the whole-program call graph (dettaint, hotpath-escape). See DESIGN.md §3d
# and §3i.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/acacia-vet ./...

# Escape gate alone: rebuilds the module with -gcflags='-m -m' and holds
# every //acacia:hotpath range to zero escape diagnostics (DESIGN.md §3i).
# Split out so CI runs it on each toolchain in the matrix — the compiler's
# escape output format changed between Go 1.22 and 1.24 and the parser
# must keep up with both.
vet-escape:
	$(GO) run ./cmd/acacia-vet -rules hotpath-escape ./...

test:
	$(GO) test ./...

# Trials run concurrently; the race detector guards the scheduler and the
# no-shared-mutable-state contract between trials. ./benchmark is left out:
# its profile-attribution test is sized in host seconds and starves under
# race instrumentation (ROADMAP item 1(d)); `make test` still runs it.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '^acacia/benchmark$$')

# Coverage in atomic mode (trials run on multiple goroutines), with a
# per-package and total summary.
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1


fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Regenerate every figure/table of the paper (quick mode).
results:
	$(GO) run ./cmd/acacia-sim -all

# Same, as CSV for plotting.
results-csv:
	$(GO) run ./cmd/acacia-sim -all -csv

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo's end-to-end benchmark (BENCHMARK.json): four named workloads,
# seven end-to-end metrics each, per-layer attribution. See
# benchmark/README.md for the modes (-only, -traced, -record, -selfcheck).
benchmark:
	$(GO) run ./benchmark

# Non-test Go lines, the figure ROADMAP.md tracks: every *.go outside
# _test.go files, testdata/ and benchmark/.
LOC = find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './benchmark/*' | xargs cat | wc -l

loc:
	@$(LOC)

# The ceiling loc-check holds `make loc` to. Growth past it fails CI, so
# raising it is a reviewed one-line diff, as ALLOC_BUDGET.json is for
# allocations.
LOC_CEILING = 21622

loc-check:
	@n=$$($(LOC)); if [ "$$n" -gt $(LOC_CEILING) ]; then \
		echo "make loc = $$n, over LOC_CEILING = $(LOC_CEILING)"; exit 1; fi; \
		echo "make loc = $$n (ceiling $(LOC_CEILING))"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/retail
	$(GO) run ./examples/localization
	$(GO) run ./examples/offload
	$(GO) run ./examples/mobility

# The artifacts the reproduction records.
test_output.txt:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench_output.txt:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -f test_output.txt bench_output.txt coverage.out
