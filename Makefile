GO ?= go

.PHONY: build test vet race check fuzz-smoke golden-check metrics-golden bench-smoke bench-gate bench-parallel experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite under the race detector; the concurrent matio
# range-scan tests (TestConcurrentRangeScanStats, TestConcurrentScansAndReads),
# the worker-sharded svd/core equivalence tests, the internal/server
# concurrency tests (TestConcurrentQueriesFileBacked hammering the pooled
# read buffers + telemetry over a File-backed U, the bulk/plan-cache storms
# and the graceful-shutdown drain test) and the scatter/gather, hedging and
# /v1 contract tests of internal/cluster and internal/api exercise the
# shared counters, the one row-sharding driver of the compressor
# (svd.scanSharded) and the query engine's workers under it. The race detector
# is ~5-10x slower, so give packages more than the default 10m.
race:
	$(GO) test -race -timeout 30m ./...

# fuzz-smoke gives each fuzzer a short budget on every check run:
# FuzzOpen chews on .smx headers/pages, FuzzReadLabeled on .sqz containers,
# FuzzSymEigen on small, badly scaled symmetric matrices (residual and
# orthonormality bounds, or a typed error), FuzzPartialUnmarshal on SQP1
# partial frames — the bytes a proxy accepts from its shards (no panic, and
# whatever decodes re-encodes to the same bytes), FuzzTopK on offer streams
# full of ties, ±Inf and NaN (the top-γ buffer retains what a sort says it
# should), FuzzPointReadEncoding on cell and row bodies (the append encoders
# write encoding/json's bytes, labels and edge floats included).
# `go test -fuzz` accepts one target per invocation, hence six runs.
fuzz-smoke:
	$(GO) test -run FuzzOpen -fuzz FuzzOpen -fuzztime 10s ./internal/matio
	$(GO) test -run FuzzReadLabeled -fuzz FuzzReadLabeled -fuzztime 10s ./internal/store
	$(GO) test -run FuzzSymEigen -fuzz FuzzSymEigen -fuzztime 10s ./internal/linalg
	$(GO) test -run FuzzPartialUnmarshal -fuzz FuzzPartialUnmarshal -fuzztime 10s ./internal/query
	$(GO) test -run FuzzTopK -fuzz FuzzTopK -fuzztime 10s ./internal/pqueue
	$(GO) test -run FuzzPointReadEncoding -fuzz FuzzPointReadEncoding -fuzztime 10s ./internal/api

# golden-check re-runs only the frozen-fixture compatibility tests: the v1
# .smx and .sqz binaries and the v2 .sqz that still carries filter bytes,
# all checked into testdata, must keep loading bit-for-bit identically.
golden-check:
	$(GO) test -run 'TestGolden' -v ./internal/matio ./internal/store

# metrics-golden pins the observable metrics schemas: the /v1/metrics JSON
# key structure and the Prometheus exposition's family names/types are
# diffed against internal/server/testdata/*.golden, and the new
# observability packages get a dedicated vet pass. Regenerate the goldens
# after an intentional schema change with:
#	go test ./internal/server -run Golden -update-golden
metrics-golden:
	$(GO) vet ./internal/trace ./internal/telemetry ./internal/server
	$(GO) test -run 'TestMetrics.*SchemaGolden' -v ./internal/server

# bench-smoke vets and tests the benchmark module. bench/ is a module of
# its own, so `go build ./...` and `go test ./...` do not reach it: this is
# what fails CI when a PR renames an internal API the benchmark pins
# (server.New/NewHandler/Options, cluster.New/Topology, the proxy's
# /v1/metrics keys, ...) or a metric BENCHMARK.json declares. The test is a
# 3 s smoke run of every workload with its in-run correctness checks (bit
# identity through the proxy, ledger sums, the crash drill).
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

check: vet race golden-check metrics-golden fuzz-smoke bench-smoke

# bench-gate measures the working tree against PARENT by the rule a claimed
# gain must pass: PAIRS alternating 15 s runs of WORKLOAD, seeds 1..PAIRS,
# each side's benchmark built once (the parent's from a git archive in a
# temporary directory). It prints per end-to-end metric both medians, the
# parent's IQR, the change's wins and its shift against the bound in
# BENCHMARK.json, and fails if any run reports correct: false.
PARENT ?= HEAD
WORKLOAD ?= point_read
PAIRS ?= 10
bench-gate:
	$(GO) run ./scripts/benchgate -parent $(PARENT) -workload $(WORKLOAD) -pairs $(PAIRS)

# bench-parallel runs the worker-count sub-benchmarks: the two sharded hot
# loops (pass-1 C accumulation, U projection) at workers {1,2,4,8} and the
# whole SVDD compression (sharded factor pass + serial pass 2) at {1,2},
# plus pass 2 alone for given factors at the benchmark's two shapes
# (BenchmarkPass2: phone 2048×366 and 20000×366); the benchmark in bench/
# records the same per layer (svd.accumulate_c_speedup,
# core.compress_worker_speedup, core.pass2_ms).
bench-parallel:
	$(GO) test -bench 'Parallel|Pass2' -run '^$$' -benchtime 1x ./internal/svd ./internal/core

# experiments regenerates the paper's tables and figures (results/*.csv|txt).
# Performance is the benchmark's job: see bench/README.md.
experiments:
	$(GO) run ./cmd/experiments
