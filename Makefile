GO ?= go

.PHONY: ci vet build test race benchmark bench bench-warm bench-revised bench-shard bench-servd bench-obs bench-screen bench-smoke fuzz-smoke revised-smoke crash-resume shard-smoke servd-smoke obs-smoke screen-smoke clean

ci: vet build race bench-smoke fuzz-smoke revised-smoke crash-resume shard-smoke servd-smoke obs-smoke screen-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detector over the whole module with a short trial budget: the golden
# full-pipeline runs are skipped (they are single-threaded determinism
# checks), while every concurrent path — parallel fan-out, the shared solve
# cache, journaling — still runs under the detector.
race:
	$(GO) test -race -short ./...

# The repository benchmark (BENCHMARK.json, benchmark/): for each workload
# BENCHMARK.json declares, one end-to-end run (--trace 0) and one per-layer
# run (--trace 1), about 50 s each. Each run's output is kept in
# .bench_build/W.traceN.txt; its last line is the JSON result. Not in ci.
benchmark:
	@mkdir -p .bench_build
	@set -e; \
	workloads=$$(sed -n '/"workloads"/,/]/s/.*"name": "\(.*\)".*/\1/p' BENCHMARK.json); \
	test -n "$$workloads" || { echo "no workloads found in BENCHMARK.json" >&2; exit 1; }; \
	for w in $$workloads; do for t in 0 1; do \
		out=.bench_build/$$w.trace$$t.txt; \
		bash benchmark/run.sh --workload $$w --trace $$t >$$out || { cat $$out; exit 1; }; \
		cat $$out; \
	done; done

# Solver-layer benchmark sweep with telemetry attribution: pairs ns/op with
# the deterministic work counters (pivots, nodes, evaluations, appends) each
# workload produced. Output is machine-readable for regression tracking.
bench:
	BENCH_OUT=BENCH_telemetry.json $(GO) test -run '^TestBenchTelemetry$$' -count=1 -v .

# Warm-start and cache speedup report: runs the cold/warm benchmark pairs and
# writes BENCH_warmstart.json pairing ns/op with warm vs cold pivot counts.
bench-warm:
	BENCH_WARM_OUT=BENCH_warmstart.json $(GO) test -run '^TestBenchWarmstart$$' -count=1 -v .

# Shard-merge throughput report: times the full merge path (discovery,
# CRC/partition validation, replay union) over an 8-way fleet and writes
# BENCH_shard.json pairing ns/op with the merge validation counters.
# Revised-simplex speedup report: benchmarks the sparse revised simplex
# against the dense oracle on the dispatch and national-scale instances and
# writes BENCH_revised.json pairing ns/op with the lp.revised.* pivot and
# factorization counters.
bench-revised:
	BENCH_REVISED_OUT=BENCH_revised.json $(GO) test -run '^TestBenchRevised$$' -count=1 -v .

bench-shard:
	BENCH_SHARD_OUT=BENCH_shard.json $(GO) test -run '^TestBenchShard$$' -count=1 -v .

# Service cache-hit throughput report: times the full HTTP round trip of a
# deduped POST /scenarios (store lookup + artifact digest re-verification)
# and writes BENCH_servd.json pairing ns/op with the service counters.
bench-servd:
	BENCH_SERVD_OUT=BENCH_servd.json $(GO) test -run '^TestBenchServd$$' -count=1 -v .

# Observability-layer report: times the Prometheus exposition render (the
# per-scrape cost) and the fleet trace merge, writing BENCH_obs.json in the
# cpsguard-bench/v1 envelope.
bench-obs:
	BENCH_OBS_OUT=BENCH_obs.json $(GO) test -run '^TestBenchObs$$' -count=1 -v .

# N-k screening speedup report: benchmarks the depth-2 vulnerability screen
# of a 64-region national instance and writes BENCH_screen.json pairing
# ns/op with the screen.* counters; fails unless the dominance rule pruned
# at least as many contingency sets as it evaluated (≥2x reduction).
bench-screen:
	BENCH_SCREEN_OUT=BENCH_screen.json $(GO) test -run '^TestBenchScreen$$' -count=1 -v .

# One-iteration pass over every benchmark: catches benchmarks that no longer
# compile or panic, without paying for a timed run. Part of ci.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -count 1 ./...

# Short fuzz smoke: exercise each fuzz target briefly so regressions in the
# hostile-input paths surface in CI without a long fuzzing budget.
fuzz-smoke:
	$(GO) test ./internal/lp/ -run=^$$ -fuzz=FuzzSolveAgreement -fuzztime=5s
	$(GO) test ./internal/lp/ -run=^$$ -fuzz=FuzzHostileInputs -fuzztime=5s
	$(GO) test ./internal/graph/ -run=^$$ -fuzz=FuzzUnmarshalValidate -fuzztime=5s
	$(GO) test ./internal/checkpoint/ -run=^$$ -fuzz=FuzzReadJournal -fuzztime=5s
	$(GO) test ./internal/milp/ -run=^$$ -fuzz=FuzzBranchAndBound -fuzztime=5s
	$(GO) test ./internal/lp/ -run=^$$ -fuzz=FuzzWarmStart -fuzztime=5s
	$(GO) test ./internal/lp/ -run=^$$ -fuzz=FuzzRevisedSimplex -fuzztime=5s
	$(GO) test ./internal/screen/ -run=^$$ -fuzz=FuzzScreenPrune -fuzztime=5s

# Revised-vs-dense differential smoke: the dense-oracle battery (fixtures,
# outage sweeps, seeded random LPs, error taxonomy) plus the golden Fig. 5
# byte-identity check under -lp-method=revised. Part of ci.
revised-smoke:
	$(GO) test ./internal/lp/ -run 'TestRevisedVsDenseDifferential|TestRevisedWarmAcrossMethods' -count=1
	$(GO) test -run '^TestGoldenFig5Revised$$' -count=1 .

# Crash-resume acceptance: a sweep killed mid-run and resumed from its
# journal — including over a deliberately torn journal tail — must render
# CSV byte-identical to an uninterrupted run.
crash-resume:
	$(GO) test ./internal/checkpoint/ -count=1
	$(GO) test ./internal/experiments/ -run 'TestResume|TestRetries' -count=1
	$(GO) test ./internal/repeated/ -run 'TestResume' -count=1

# Sharded-sweep acceptance: the shard/supervisor/merge unit and integration
# tests, then an end-to-end binary check — a supervised 2-shard run, merged,
# must produce a CSV with the same checksum as a single-process run of the
# same seeded sweep.
shard-smoke:
	$(GO) test ./internal/shard/ -count=1
	$(GO) test ./internal/experiments/ -run 'TestShard|TestStrictReplay' -count=1
	$(GO) build -o /tmp/cpsguard-shard-smoke/cpsexp ./cmd/cpsexp
	rm -rf /tmp/cpsguard-shard-smoke/run
	/tmp/cpsguard-shard-smoke/cpsexp -quick -fig 5 -seed 7 -log-level warn \
		-csv /tmp/cpsguard-shard-smoke/run/single >/dev/null
	/tmp/cpsguard-shard-smoke/cpsexp -quick -fig 5 -seed 7 -log-level warn \
		-shard-supervise 2 -shard-dir /tmp/cpsguard-shard-smoke/run/shards >/dev/null
	/tmp/cpsguard-shard-smoke/cpsexp -quick -fig 5 -seed 7 -log-level warn \
		-shard-merge /tmp/cpsguard-shard-smoke/run/shards \
		-csv /tmp/cpsguard-shard-smoke/run/merged >/dev/null
	cmp /tmp/cpsguard-shard-smoke/run/single/fig5.csv /tmp/cpsguard-shard-smoke/run/merged/fig5.csv
	@echo "shard-smoke: merged CSV byte-identical to single-process run"

# Scenario-service acceptance: the servd unit/integration battery (dedup,
# coalescing, saturation, breaker, corruption eviction, drain, chaos through
# the HTTP path), then an end-to-end binary check — start cpsservd, submit
# the same scenario twice, require the second response to be a cache hit
# serving bytes identical to the first, and a clean drain on SIGTERM.
servd-smoke:
	$(GO) test ./internal/servd/ -count=1
	$(GO) test -run '^TestServdSmoke$$' -count=1 .

# Fleet observability acceptance: metric-name lint and strict-exposition
# round-trip over the live default registry, the trace-context/merge and
# Prometheus unit batteries, then an end-to-end binary check — a 2-shard
# supervised run whose per-process traces cpsreport stitches into one fleet
# timeline with every cross-process parent link resolved.
obs-smoke:
	$(GO) test ./internal/telemetry/ -count=1
	$(GO) test -run 'TestMetricNames|TestDefaultRegistryExposition|TestObsSmoke' -count=1 .

# N-k screening acceptance: the screen unit battery and the differential
# oracle (screened == brute force, bit-identical), then an end-to-end binary
# check — a screened `cpsexp -screen-k 2` run must produce a CSV
# byte-identical to the unscreened run of the same seeded sweep while its
# metrics snapshot shows the dominance rule actually pruned candidates.
screen-smoke:
	$(GO) test ./internal/screen/ -count=1
	$(GO) test ./internal/defense/ -run 'TestPlanRedesign' -count=1
	$(GO) build -o /tmp/cpsguard-screen-smoke/cpsexp ./cmd/cpsexp
	rm -rf /tmp/cpsguard-screen-smoke/run
	/tmp/cpsguard-screen-smoke/cpsexp -quick -fig 5 -seed 7 -log-level warn \
		-csv /tmp/cpsguard-screen-smoke/run/plain >/dev/null
	/tmp/cpsguard-screen-smoke/cpsexp -quick -fig 5 -seed 7 -log-level warn -screen-k 2 \
		-csv /tmp/cpsguard-screen-smoke/run/screened \
		-metrics /tmp/cpsguard-screen-smoke/run/metrics.json >/dev/null
	cmp /tmp/cpsguard-screen-smoke/run/plain/fig5.csv /tmp/cpsguard-screen-smoke/run/screened/fig5.csv
	grep -q '"screen.pruned": [1-9]' /tmp/cpsguard-screen-smoke/run/metrics.json
	@echo "screen-smoke: screened CSV byte-identical to unscreened run, pruning active"

# Remove build and scratch artifacts. The reference CSVs committed under
# results/ are deliberately preserved: they are reviewed outputs, not
# build products.
clean:
	$(GO) clean ./...
	rm -f cpsattack cpsdefend cpsexp cpsflow cpsgen cpsservd BENCH_telemetry.json BENCH_warmstart.json BENCH_revised.json BENCH_shard.json BENCH_servd.json BENCH_obs.json BENCH_screen.json
	rm -rf /tmp/cpsguard-shard-smoke /tmp/cpsguard-screen-smoke .bench_build
	find . -name '*.journal' -not -path './results/*' -delete
	find . -name '*.test' -delete
