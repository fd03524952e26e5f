# ACACIA reproduction — common workflows.

GO ?= go

.PHONY: all build vet vet-escape test race cover fmt-check bench benchmark bench-alloc alloc-gate loc loc-check results results-csv examples clean

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

# bench_to_json runs `go test -bench=$(1)` and records every Benchmark*
# line as a JSON array in $(2) (name, iterations, ns/op, B/op, allocs/op).
# A failed or benchmark-free run still writes valid JSON ([]) but exits
# nonzero, so downstream tooling never parses a half-written file.
define bench_to_json
	@if ! $(GO) test -bench='$(1)' -benchmem ./... > bench_raw.tmp 2>&1; then \
		echo "[]" > $(2); \
		echo "bench-json: go test -bench failed; $(2) reset to []" >&2; \
		cat bench_raw.tmp >&2; rm -f bench_raw.tmp; exit 1; fi
	@awk ' \
		BEGIN { print "["; n = 0 } \
		$$1 ~ /^Benchmark/ && $$4 == "ns/op" { \
			if (n++) printf ",\n"; \
			bytes = ($$6 == "B/op") ? $$5 : "null"; \
			allocs = ($$8 == "allocs/op") ? $$7 : "null"; \
			printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
				$$1, $$2, $$3, bytes, allocs \
		} \
		END { print "\n]" }' bench_raw.tmp > $(2)
	@rm -f bench_raw.tmp
	@count=$$(grep -c '"name"' $(2) || true); \
	if [ "$$count" -eq 0 ]; then \
		echo "[]" > $(2); \
		echo "bench-json: no benchmarks in output; $(2) reset to []" >&2; \
		exit 1; fi; \
	echo "wrote $(2) ($$count benchmarks)"
endef

# Allocation subset: the BenchmarkAlloc* hot-path family (DESIGN.md §3f).
bench-alloc:
	$(call bench_to_json,^BenchmarkAlloc,BENCH_alloc.json)

# Allocation-budget gate: re-measure and hold every BenchmarkAlloc* result
# against the committed ceilings in ALLOC_BUDGET.json. Fails CI when a hot
# path regresses past its budget.
alloc-gate: bench-alloc
	$(GO) run ./cmd/acacia-allocgate -bench BENCH_alloc.json -budget ALLOC_BUDGET.json

# Non-test Go lines, the figure ROADMAP.md tracks: every *.go outside
# _test.go files, testdata/ and benchmark/.
LOC = find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './benchmark/*' | xargs cat | wc -l

loc:
	@$(LOC)

# The ceiling loc-check holds `make loc` to. Growth past it fails CI, so
# raising it is a reviewed one-line diff, as ALLOC_BUDGET.json is for
# allocations.
LOC_CEILING = 22656

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
	rm -f test_output.txt bench_output.txt coverage.out BENCH_alloc.json bench_raw.tmp
