GO ?= go

.PHONY: build test vet race check fuzz-smoke golden-check metrics-golden bench-smoke bench-gate bench-parallel experiments loc

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
# read buffers + telemetry over a File-backed U, the bulk + compaction +
# aggregate storms and the graceful-shutdown drain test), the pooled-state
# plan tests of internal/query and the scatter/gather, hedging and /v1
# contract tests of internal/cluster and internal/api exercise the shared
# counters, the one row-sharding driver of the compressor
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
# write encoding/json's bytes, labels and edge floats included), FuzzDotRows
# on raw float bit patterns (the panel kernel equals per-row Dot bit for
# bit), FuzzAxpyRows on raw float bit patterns (the Gram kernel equals
# sequential Axpy calls bit for bit), FuzzDotBounds on raw float bit
# patterns (a finite interval bound encloses every Dot inside its box, and
# its corners attain it), FuzzDecodeFrame on the binary shard answers the
# proxy decodes (no panic, allocation bounded by the frame's size, every
# strict prefix refused, a decoded body re-encodes to the same JSON),
# FuzzStagedMoments on raw float bit patterns as factor rows across the
# 1 024-row flush (the staged moments' registers equal a per-term exact.Sum
# fold bit for bit), FuzzChannelFrame on the request and response frames of
# the proxy's shard channels (no panic, allocation bounded by the declared
# length capped at the 1 GiB cap, every strict prefix refused, decode
# then encode gives back the same bytes). `go test -fuzz` accepts one
# target per invocation, hence one run per fuzzer.
fuzz-smoke:
	$(GO) test -run FuzzOpen -fuzz FuzzOpen -fuzztime 10s ./internal/matio
	$(GO) test -run FuzzReadLabeled -fuzz FuzzReadLabeled -fuzztime 10s ./internal/store
	$(GO) test -run FuzzSymEigen -fuzz FuzzSymEigen -fuzztime 10s ./internal/linalg
	$(GO) test -run FuzzPartialUnmarshal -fuzz FuzzPartialUnmarshal -fuzztime 10s ./internal/query
	$(GO) test -run FuzzTopK -fuzz FuzzTopK -fuzztime 10s ./internal/pqueue
	$(GO) test -run FuzzPointReadEncoding -fuzz FuzzPointReadEncoding -fuzztime 10s ./internal/api
	$(GO) test -run FuzzDotRows -fuzz FuzzDotRows -fuzztime 10s ./internal/linalg
	$(GO) test -run FuzzAxpyRows -fuzz FuzzAxpyRows -fuzztime 10s ./internal/linalg
	$(GO) test -run FuzzDotBounds -fuzz FuzzDotBounds -fuzztime 10s ./internal/linalg
	$(GO) test -run FuzzDecodeFrame -fuzz FuzzDecodeFrame -fuzztime 10s ./internal/api
	$(GO) test -run FuzzStagedMoments -fuzz FuzzStagedMoments -fuzztime 10s ./internal/exact
	$(GO) test -run FuzzChannelFrame -fuzz FuzzChannelFrame -fuzztime 10s ./internal/api

# golden-check re-runs only the frozen-fixture compatibility tests: the v1
# .smx and .sqz binaries and the v2 .sqz that still carries filter bytes,
# all checked into testdata, must keep loading bit-for-bit identically.
golden-check:
	$(GO) test -run 'TestGolden' -v ./internal/matio ./internal/store

# metrics-golden pins the observable metrics schemas, four goldens: a
# node's /v1/metrics JSON key structure (metrics_json_schema.golden) and
# Prometheus families/types (metrics_prom_schema.golden) under
# internal/server/testdata, and the proxy's cluster-scope and own-scope
# Prometheus families (cluster_prom_schema.golden, proxy_prom_schema.golden)
# under internal/cluster/testdata. The observability packages, the
# Prometheus test parser among them, get a dedicated vet pass. Regenerate
# the goldens after an intentional schema change with:
#	go test ./internal/server -run Golden -update-golden
#	go test ./internal/cluster -run PromGolden -update-golden
metrics-golden:
	$(GO) vet ./internal/trace ./internal/telemetry ./internal/telemetry/promcheck ./internal/server ./internal/cluster
	$(GO) test -run 'TestMetrics.*SchemaGolden' -v ./internal/server
	$(GO) test -run 'TestClusterPromGolden|TestProxyPromGolden' -v ./internal/cluster

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

# loc prints the non-test Go line count outside bench/, the size ROADMAP
# tracks, for the working tree or, with REV=<ref>, for that revision:
#	make loc REV=HEAD~1
REV ?=
loc:
	@if [ -z "$(REV)" ]; then \
		find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l; \
	else \
		git ls-tree -r --name-only $(REV) | grep '\.go$$' | grep -v -e '_test\.go$$' -e '^bench/' | \
			sed 's|^|$(REV):|' | xargs git show | wc -l; \
	fi

# bench-gate measures the working tree against PARENT: PAIRS alternating
# 15 s runs of each workload in the comma-separated WORKLOAD, seeds
# FIRST_SEED..FIRST_SEED+PAIRS-1, each side's benchmark built once (the
# parent's from a git archive in a temporary directory). It first prints
# both sides' non-test line counts (make loc) and the address mod 64 of the
# hot functions in both binaries (a layout shift shows there), then per end-to-end metric both medians, the parent's IQR, the
# change's wins, its shift against the bound in BENCHMARK.json and a
# verdict, and fails if any median is worse than the
# parent's by more than its bound (the rule a change claiming no gain is
# held to), any run reports correct: false, or any op failed:
#	make bench-gate WORKLOAD=point_read,agg_adhoc,proxy_mixed,ingest_mixed PAIRS=5
PARENT ?= HEAD
WORKLOAD ?= point_read
PAIRS ?= 10
FIRST_SEED ?= 1
bench-gate:
	@echo "non-test Go lines: parent $$($(MAKE) -s --no-print-directory loc REV=$(PARENT)), change $$($(MAKE) -s --no-print-directory loc)"
	$(GO) run ./scripts/benchgate -parent $(PARENT) -workload $(WORKLOAD) -pairs $(PAIRS) -first-seed $(FIRST_SEED)

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
