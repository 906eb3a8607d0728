# Standard developer checks. `make check` (the default goal) is the gate
# used before sending changes: formatting, vet, a full build, and the
# concurrency-heavy packages (serve, core, mr) under the race detector.

GO ?= go

.PHONY: check fmt vet build perfbench-build test race race-concurrency chaos plan-golden bench bench-smoke fuzz-smoke profile-smoke serve-bench serve-smoke ingest-smoke clean

check: fmt vet build perfbench-build race-concurrency chaos plan-golden ingest-smoke

# Fail if any file is not gofmt-clean, listing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The repository benchmark (perfbench/) is its own module, so `go build
# ./...` above skips it; vet and build it here so an API change that breaks
# its adapter fails the check instead of the next benchmark run.
perfbench-build:
	cd perfbench && $(GO) vet . && $(GO) build -o /dev/null .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The serving layer, engine and MapReduce runtime are where the shared
# mutable state lives (table cache, admission queue, scheduler); their tests
# run under -race on every check. colstore rides along so the scan-path
# property tests (encoding round-trips, zone-map oracle, v1 format compat)
# run race-checked too.
race-concurrency:
	$(GO) test -race ./internal/serve/... ./internal/core/... ./internal/mr/... ./internal/colstore/...

# Fault-injection suite (see DESIGN.md "Fault tolerance"): every SSB query
# under node kills, stragglers, transient read errors and corrupted
# replicas must match the healthy answer, race-checked because recovery is
# where scheduler, namenode and cache state interleave.
chaos:
	$(GO) test -race ./internal/chaos/... ./internal/hdfs/... ./internal/cluster/...

# Planner gate (see DESIGN.md "Planner"): the golden plan texts for all 13
# SSB queries (regenerate with `go test ./internal/plan -run GoldenPlans
# -update`), the snowflake property suite holding every lowering — star,
# staged, cascade, and both Hive strategies — to the logical-plan oracle,
# and the cascade's zero-intermediate-reduce span check, all under -race.
plan-golden:
	$(GO) test -race ./internal/plan/...

# Probe-path regression guard (see DESIGN.md "Probe hot path"): the table
# probe/build microbenchmarks and the per-row emit benchmark, with allocation
# counts. The gomap/boxed variants are the pre-change layouts kept in-tree as
# the comparison baseline — open vs gomap and inmapper/scratch vs boxed are
# the ratios to watch. CI-friendly: short benchtime, no external state.
bench:
	$(GO) test -run '^$$' -bench 'Probe|HashBuild|Aggregate|CIFScan' -benchmem -benchtime 0.2s ./internal/core/ ./internal/colstore/ .

# One-iteration smoke run of every benchmark in the repo, then the row
# accounting gate: on all 13 SSB queries, every fact row must be attributed
# to exactly one of probed / late-skipped / bloom-skipped / pruned
# (TestAllQueriesMatchReference enforces the invariant and the reference
# answers).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run 'TestAllQueriesMatchReference' -count=1 ./internal/core/

# Fuzz smoke: a short native-fuzzing run of the column-major dimension
# copy decoder (colstore.FuzzDimCopy). Arbitrary bytes, with the checksums
# optionally repaired so the structural checks behind them are reached,
# must decode or return an error — never panic. A failing input lands in
# internal/colstore/testdata/fuzz/ and replays under plain `go test`. New
# coverage-widening inputs are minimized for at most a second each, so the
# ten seconds go to fuzzing rather than to shrinking a few inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDimCopy$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/colstore/

# EXPLAIN ANALYZE invariant gate (see DESIGN.md "Observability"): run Q1.1
# with profiling on and fail unless the per-phase exclusive walls sum to the
# query's wall clock, the span tree is rooted at a query span, and nothing
# was orphaned or dropped. -explain-check exits non-zero on violation.
profile-smoke:
	@out="$$($(GO) run ./cmd/clydesdale -query Q1.1 -factrows 20000 -explain -explain-check)" || \
		{ echo "$$out"; exit 1; }; echo "$$out" | grep 'explain-check'

# Serving benchmark (see EXPERIMENTS.md "Serving at scale"): replay one
# seed-deterministic open-loop tenant mix under FIFO, weighted fair-share,
# and fair-share + result cache, writing per-class latency/SLO/shed numbers
# and the cache cold/warm measurement to BENCH_serve.json.
serve-bench:
	$(GO) run ./cmd/loadgen -out BENCH_serve.json

# CI gate for the serving path: a short load run must complete queries in
# every pass without shedding its whole offered load, and the warm
# result-cache pass must submit zero MapReduce jobs (counter-verified).
serve-smoke:
	$(GO) run ./cmd/loadgen -duration 5s -rate 40 -fact-rows 60000 -check -out ''

# CI gate for live ingestion (see DESIGN.md "Live ingestion"): batched fact
# roll-ins racing queries, the background compactor, a dimension roll-in and
# date retention; after every step a query must answer exactly like the
# in-memory reference over the rows acknowledged so far, and the final table
# must hold every acknowledged row. The run is its own check — any torn
# snapshot, stale cache or lost row exits non-zero.
ingest-smoke:
	$(GO) run ./cmd/loadgen -ingest -out ''

clean:
	$(GO) clean ./...
