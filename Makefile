GO ?= go
FUZZTIME ?= 10s
# The -mc (multi-core) snapshots are informational and never eligible as
# the gate baseline, whatever their date sorts to.
BENCH_BASELINE ?= $(lastword $(sort $(filter-out %-mc.json,$(wildcard BENCH_*.json))))

.PHONY: build test test-perfbench test-race fuzz-short fuzz-race bench bench-quick bench-mc bench-compare perf-gate bench-e2e obs-check lint lint-json check

build:
	$(GO) build ./...

# Tier 1: the full unit + integration suite.
test:
	$(GO) test ./...

# Static gates: formatting, go vet, and the streamvet analyzer suite — all
# ten analyzers over every internal/ and cmd/ package — with the compiler
# escape cross-check over the //streampca:noalloc hot path, the
# unused-directive audit, and the committed suppression budget (see
# internal/analysis and the "Static guarantees" section of DESIGN.md).
# ./... covers cmd/ too; the explicit trailing ./cmd argument makes the gate
# fail loudly if the loader ever stops seeing the commands.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/streamvet -escape -budget internal/analysis/suppressions.txt ./... ./cmd

# Machine-readable diagnostics: the full streamvet finding list as JSON,
# suppressed findings included and flagged with their //streamvet:ignore
# reasons. The exit status still reflects unsuppressed findings only.
# STREAMVET_JSON names the artifact file; `make check` publishes one.
STREAMVET_JSON ?= streamvet.json
lint-json:
	$(GO) run ./cmd/streamvet -json ./... > $(STREAMVET_JSON)
	@echo "lint-json: wrote $(STREAMVET_JSON)"

# Tier 2: the wire layer against real TCP sockets under the race detector —
# loopback edges, reconnect chaos, and the multi-process harness tests that
# re-exec the test binary as worker processes.
test-wire:
	$(GO) test -race -count=1 ./internal/wire ./internal/pipeline

# Fuzz seed-corpus replay under the race detector: plain `go test` replays
# committed corpora without -race, so a corpus input that trips a data race
# (the wire decoder runs against live sockets elsewhere) would slip the gate.
# -run with the fuzz-target names and no -fuzz flag replays seeds only.
fuzz-race:
	$(GO) test -race -count=1 -run '^Fuzz' ./internal/core ./internal/fault ./internal/wire

# The benchmark harness is its own module (perfbench/go.mod), so `go test
# ./...` at the root never reaches its tests — among them the check that
# BENCHMARK.json matches the harness's workload and metric tables.
test-perfbench:
	cd perfbench && $(GO) test ./...

# The one-stop pre-commit target: every static gate plus the full test suite,
# the race-enabled wire/transport suite, the race-mode fuzz-corpus replay,
# the benchmark harness's own tests, and the machine-readable diagnostics
# artifact ($(STREAMVET_JSON)).
check: lint test test-wire fuzz-race test-perfbench lint-json

# Tier 2: the same suite under the race detector (the chaos tests exercise
# panic recovery, revive, and the failure supervisor concurrently), with the
# blocked-kernel property and zero-alloc contracts called out explicitly so a
# scoped run still covers the hot-path guarantees.
test-race:
	$(GO) test -race -run 'Blocked|GramParallel|ZeroAllocs|Workspace|ForcedParallelism|Panel|ObserveBlock|TridiagSym' ./internal/mat ./internal/eig ./internal/core
	$(GO) test -race -count=2 -run 'Chaos' ./...
	$(GO) test -race ./...

# Tier 2: short fuzzing passes over the checkpoint reader and the fault
# injector. Each target fuzzes for $(FUZZTIME); seed corpora alone run in
# plain `make test`.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzReadEigensystem$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzInjector$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzFrameCodec$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzSyncMessage$$' -fuzztime $(FUZZTIME) ./internal/wire

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Short benchmark pass recorded as a dated JSON snapshot (BENCH_<date>.json)
# so the repo accumulates a perf trajectory; see DESIGN.md on reading it.
bench-quick:
	$(GO) run ./cmd/benchjson -bench Observe -benchtime 0.5s

# Multi-core benchmark lane: the engine and pipeline benchmarks under
# GOMAXPROCS=4 (override with MC_PROCS), recorded as BENCH_<date>-mc.json.
# The snapshot header stamps the GOMAXPROCS it ran at, and BENCH_BASELINE
# filters `-mc` snapshots out so the lane never becomes the single-core
# perf-gate baseline, whatever dates exist.
MC_PROCS ?= 4
bench-mc:
	GOMAXPROCS=$(MC_PROCS) $(GO) run ./cmd/benchjson -bench 'Observe|PipelineThroughput' \
		-benchtime 0.5s -samples 3 -label mc-gomaxprocs$(MC_PROCS) -o BENCH_$$(date +%F)-mc.json

# Side-by-side delta table between two committed snapshots (informational;
# never fails): make bench-compare OLD=BENCH_a.json NEW=BENCH_b.json
bench-compare:
	@test -n "$(OLD)" && test -n "$(NEW)" || { echo "usage: make bench-compare OLD=BENCH_a.json NEW=BENCH_b.json"; exit 1; }
	$(GO) run ./cmd/benchjson -compare $(OLD) $(NEW)

# Perf regression gate: re-measures the per-observation engine benchmarks
# (Observe, ObserveBlock — ns/op, lower is better) and the end-to-end
# pipeline + wire throughput (tuples/s, higher is better) and fails if any
# entry is >20% worse than the newest committed BENCH_*.json baseline. The
# same run holds three intra-run contracts: ObserveInstrumented/d-* must stay
# within 5% of the *uninstrumented* Observe/d-* baseline and allocate
# nothing, ObserveBlock's ns/row must undercut the sequential Observe ns/op
# at every d ≥ 400 point (the block path has to actually amortize), and
# WireThroughput must reach 0.90× of PipelineThroughput/batched-64 measured
# in the same run (the coalesced wire transport has to stay within its tax
# budget). The trailing bench-mc lane is informational only — the `-` prefix
# means a multi-core wobble never fails the gate, but the numbers land in
# the log next to the gated single-core run.
perf-gate:
	@test -n "$(BENCH_BASELINE)" || { echo "perf-gate: no committed BENCH_*.json baseline"; exit 1; }
	$(GO) run ./cmd/benchjson -bench 'Observe|PipelineThroughput|WireThroughput' -benchtime 0.5s -samples 3 -gate $(BENCH_BASELINE)
	-$(MAKE) bench-mc

# End-to-end repository benchmark (BENCHMARK.json): the three workloads,
# untraced, each built from this checkout by perfbench/run.sh and run for
# $(SECONDS) s on inputs generated from $(SEED). Every run prints one JSON
# line (correct, attempted, failed, metrics); a failed output check stops
# the target. Add --trace 1 by hand for the per-layer ledger.
SEED ?= 1
SECONDS ?= 30
bench-e2e:
	@for w in steady-block wire-block gappy-scalar; do \
		echo "bench-e2e: $$w"; \
		bash perfbench/run.sh --workload $$w --seed $(SEED) --seconds $(SECONDS) --trace 0 || exit 1; \
	done

# End-to-end observability acceptance: build cmd/streampca, run an
# instrumented pipeline with -obs, and validate the JSON snapshot, Prometheus
# text, journal and Chrome trace endpoints over real HTTP. The -wire pass
# re-runs it against a real 2-worker localhost TCP cluster and validates the
# coordinator's aggregated /cluster/* surface (merged JSON, node-labeled
# Prometheus, skew-corrected merged trace).
obs-check:
	$(GO) run ./cmd/obscheck
	$(GO) run ./cmd/obscheck -wire
