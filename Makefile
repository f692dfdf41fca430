# Build / test / benchmark entry points. CI runs `make bench` to archive
# the kernel benchmark trajectory as BENCH_kernels.json (see ci.yml).

GO        ?= go
BENCH     ?= BenchmarkKernel|BenchmarkSweep|BenchmarkObs|BenchmarkQuery
BENCHTIME ?= 1s
# COVER_MIN is the post-PR-4 total-coverage baseline (84.3% measured,
# floored with a small margin for run-to-run wobble); `make cover` fails
# if the tree drops below it. Raise it when coverage durably improves.
COVER_MIN ?= 84.0

.PHONY: all build test test-race cover vet fmt bench bench-diff lint-docs clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-race is the CI quick-matrix job: the full suite (statistical
# conformance, differential oracles, service concurrency) under the race
# detector, uncached so races get a fresh shot every run.
test-race:
	$(GO) test -race -count=1 ./...

# cover computes total statement coverage and enforces the COVER_MIN floor.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub("%","",$$NF); print $$NF }'); \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { \
		if (t+0 < min+0) { printf "FAIL: coverage %.1f%% below floor %s%%\n", t, min; exit 1 } \
		else { printf "coverage %.1f%% (floor %s%%)\n", t, min } }'

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

# bench runs the kernel micro-benchmarks five times each with allocation
# reporting and converts the benchfmt output into BENCH_kernels.json for
# archival; cmd/benchdiff folds the repeats to their median ns/op (and
# largest allocs/op), so its 30% limit compares medians instead of single
# runs that swing with host noise. -cpu 1 runs every benchmark at
# GOMAXPROCS=1, the procs the baseline was taken at, whatever the host's
# core count (benchdiff fails on a procs mismatch), and benchjson is told
# so. The
# test output is redirected (not piped through tee) so a benchmark failure
# fails the target instead of being masked by the pipe's exit status.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -benchtime $(BENCHTIME) -count 5 -cpu 1 . > bench.txt || (cat bench.txt; exit 1)
	cat bench.txt
	$(GO) run ./cmd/benchjson -procs 1 < bench.txt > BENCH_kernels.json
	@echo "wrote BENCH_kernels.json"

# bench-diff is the performance-regression gate CI runs after `make
# bench`: it compares the fresh BENCH_kernels.json against the committed
# baseline and fails on Kernel*, Obs*, Query* and SweepBatched*
# regressions, benchdiff's default -gate (>30% ns/op growth or any
# allocs/op increase). Refresh the baseline after intentional perf
# changes with: make bench && cp BENCH_kernels.json testdata/bench_baseline.json
bench-diff:
	$(GO) run ./cmd/benchdiff -baseline testdata/bench_baseline.json BENCH_kernels.json

# lint-docs is the documentation gate CI runs alongside vet: every
# internal/* package must keep its package comment in a dedicated doc.go,
# every relative markdown link in README.md and docs/*.md must resolve,
# and every exported function in internal/ needs a non-test caller or a
# keep-list entry (cmd/docslint/unused.go).
lint-docs:
	$(GO) run ./cmd/docslint

clean:
	rm -f bench.txt BENCH_kernels.json cover.out
