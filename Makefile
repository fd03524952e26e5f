# ACACIA reproduction — common workflows.

GO ?= go

.PHONY: all build vet vet-escape test race cover live-cover identity fmt-check bench benchmark loc loc-check results results-csv examples clean

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

# The dynamic counterpart of TestNoUnreferencedCode (DESIGN.md §3i): build
# every command, example and ./benchmark with coverage of the whole module,
# run the live surfaces under one GOCOVERDIR (the paper sweep with its
# metrics, the CSV and timeline writers, the scale scenario at each arrival
# profile, the bearer trace in both forms, the examples, acacia-vet and the
# benchmark's traced smoke pass), and list every internal/ function no run
# executed. internal/analysis is left out: what it runs is whatever code it
# vets. The list must equal LIVE_UNCOVERED.txt, which gives each function
# the reason it stays (failure unwind, panic, paging, decoder, probe...).
live-cover:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; b=$$tmp/bin; \
	for p in ./cmd/* ./examples/* ./benchmark; do \
		$(GO) build -cover -coverpkg=./... -o $$b/$$(basename $$p) $$p; done; \
	export GOCOVERDIR=$$tmp/cov; mkdir $$GOCOVERDIR; \
	$$b/acacia-sim -all -metrics >/dev/null; \
	$$b/acacia-sim -fig 3a,13 -csv -timeline $$tmp/timeline.json >/dev/null; \
	for a in uniform diurnal flash; do $$b/acacia-sim -scale -scale-arrival $$a >/dev/null; done; \
	$$b/acacia-bearers >/dev/null 2>&1; $$b/acacia-bearers -csv >/dev/null 2>&1; \
	for e in ./examples/*; do $$b/$$(basename $$e) >/dev/null; done; \
	$$b/acacia-vet ./... >/dev/null; \
	$$b/benchmark -smoke -traced -dir $$tmp/bench >/dev/null 2>&1; \
	$(GO) tool covdata func -i=$$GOCOVERDIR | awk '$$NF == "0.0%" && $$1 ~ /^acacia\/internal\// && $$1 !~ /^acacia\/internal\/analysis\// \
		{ sub(/^acacia\//, "", $$1); sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' | LC_ALL=C sort >$$tmp/got; \
	grep -v '^#' LIVE_UNCOVERED.txt | awk '{ print $$1, $$2 }' | LC_ALL=C sort >$$tmp/want; \
	if ! diff $$tmp/want $$tmp/got; then \
		echo "live-cover: internal/ functions no live run executes differ from LIVE_UNCOVERED.txt (< listed, > measured)"; exit 1; fi; \
	echo "live-cover: $$(wc -l <$$tmp/got) internal/ functions unexecuted, as LIVE_UNCOVERED.txt lists"

# Byte-identity against a base revision: unpack BASE with git archive,
# build the commands and examples of both trees, and cmp what a change must
# keep printing (stdout and stderr): the paper sweep with its metrics at -parallel 1 and 4 and
# at -seed 7, the scale scenario at each arrival profile, the bearer trace
# in both forms, and the five examples. Usage: make identity BASE=<rev>.
identity:
	@set -e; if [ -z "$(BASE)" ]; then echo "usage: make identity BASE=<rev>"; exit 2; fi; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir $$tmp/src; git archive "$(BASE)" | tar -x -C $$tmp/src; \
	(cd $$tmp/src && $(GO) build -o $$tmp/base/ ./cmd/acacia-sim ./cmd/acacia-bearers ./examples/...); \
	$(GO) build -o $$tmp/head/ ./cmd/acacia-sim ./cmd/acacia-bearers ./examples/...; \
	fail=0; \
	for c in "acacia-sim -all -metrics -parallel 1" "acacia-sim -all -metrics -parallel 4" "acacia-sim -all -seed 7" \
		"acacia-sim -scale -scale-arrival uniform" "acacia-sim -scale -scale-arrival diurnal" "acacia-sim -scale -scale-arrival flash" \
		"acacia-bearers" "acacia-bearers -csv" quickstart retail localization offload mobility; do \
		$$tmp/base/$$c >$$tmp/want 2>$$tmp/want.err; $$tmp/head/$$c >$$tmp/got 2>$$tmp/got.err; \
		if cmp -s $$tmp/want $$tmp/got && cmp -s $$tmp/want.err $$tmp/got.err; then echo "identity: same    $$c"; else echo "identity: DIFFERS $$c"; fail=1; fi; \
	done; exit $$fail

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
LOC_CEILING = 21831

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
