GO ?= go

.PHONY: ci vet build test race benchmark bench bench-check bench-smoke fuzz-smoke revised-smoke crash-resume shard-smoke servd-smoke obs-smoke screen-smoke memo-smoke clean

ci: vet build race bench-check bench-smoke fuzz-smoke revised-smoke crash-resume shard-smoke servd-smoke obs-smoke screen-smoke memo-smoke

# go vet, a gofmt check that fails when any file is not formatted, and a
# check that no binary, example or root-package code links the MILP engine:
# it is the test oracle of the exact solvers, not a production path.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi
	@if $(GO) list -deps . ./cmd/... ./examples/... | grep -qx 'cpsguard/internal/milp'; then echo "cpsguard/internal/milp is linked into production code; it is a test-only oracle"; exit 1; fi

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

# Bench reports: every row of the bench_report_test.go table, grouped into
# suites, pairs ns/op with the deterministic telemetry counters of one op
# after a warm-up op. `bench` times every row and rewrites the committed
# BENCH_<suite>.json files; `bench-check` (in ci, whose race run is -short
# and skips it) requires the counters of one op to equal them exactly.
bench:
	$(GO) test -run '^TestBenchReports$$' -update -count=1 -v .

bench-check:
	$(GO) test -run '^TestBenchReports$$' -count=1 -v .

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
	$(GO) test ./internal/impact/ -run=^$$ -fuzz=FuzzPerturbAgreement -fuzztime=5s

# Sparse-vs-dense differential smoke: the dense-oracle battery (fixtures,
# outage sweeps, seeded random LPs, error taxonomy), the pivot-path locks
# of both kernels, which also pin the kernel the size rule picks, and the
# sparse-dual guards: the KKT-certified DC-OPF up to the 64-region national
# grid and the free-split duals on the forced sparse kernel. Part of ci.
revised-smoke:
	$(GO) test ./internal/lp/ -run 'TestRevisedVsDenseDifferential|TestRevisedWarmAcrossMethods' -count=1
	$(GO) test ./internal/lp/ -run 'TestBoundedPivotPathLocked|TestRevisedPivotPathLocked' -count=1
	$(GO) test ./internal/lp/ -run 'TestDCOPFCertified|TestSplitFreeVariableDuals' -count=1

# Crash-resume acceptance: a sweep killed mid-run and resumed from its
# journal — including over a deliberately torn journal tail — must render
# CSV byte-identical to an uninterrupted run.
crash-resume:
	$(GO) test ./internal/checkpoint/ -count=1
	$(GO) test ./internal/experiments/ -run 'TestResume|TestRetries' -count=1
	$(GO) test ./internal/repeated/ -run 'TestResume' -count=1

# fig5-cmp runs the quick seed-7 Fig. 5 sweep with a freshly built cpsexp,
# once plainly into $(SMOKE)/run/plain and once through the commands given
# as its argument, which must render the same sweep into $(SMOKE)/run/check;
# the two fig5.csv files must be byte-identical. $(CPSEXP) is the binary
# with the sweep's flags.
shard-smoke screen-smoke memo-smoke: SMOKE = /tmp/cpsguard-$@
CPSEXP = $(SMOKE)/cpsexp -quick -fig 5 -seed 7 -log-level warn
define fig5-cmp
	$(GO) build -o $(SMOKE)/cpsexp ./cmd/cpsexp
	rm -rf $(SMOKE)/run
	$(CPSEXP) -csv $(SMOKE)/run/plain >/dev/null
	$(1)
	cmp $(SMOKE)/run/plain/fig5.csv $(SMOKE)/run/check/fig5.csv
endef

# Sharded-sweep acceptance: the shard/supervisor/merge unit and integration
# tests, then an end-to-end binary check — a supervised 2-shard run, merged,
# must produce a CSV with the same checksum as a single-process run of the
# same seeded sweep.
define shard-run
	$(CPSEXP) -shard-supervise 2 -shard-dir $(SMOKE)/run/shards >/dev/null
	$(CPSEXP) -shard-merge $(SMOKE)/run/shards -csv $(SMOKE)/run/check >/dev/null
endef
shard-smoke:
	$(GO) test ./internal/shard/ -count=1
	$(GO) test ./internal/experiments/ -run 'TestShard|TestStrictReplay' -count=1
	$(call fig5-cmp,$(shard-run))
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
# oracle (screened == brute force, bit-identical), the screened intervention
# sweep's tests, then an end-to-end binary
# check — an observed `cpsexp -screen-k 2` run must produce a CSV
# byte-identical to the plain run of the same seeded sweep, write the
# screen.json ranking, and show in its metrics that the screen's dominance
# rule pruned outage sets and the adversary dropped negative-value targets.
screen-smoke:
	$(GO) test ./internal/screen/ -count=1
	$(GO) test ./internal/experiments/ -run 'TestIntervention' -count=1
	$(call fig5-cmp,$(CPSEXP) -screen-k 2 -csv $(SMOKE)/run/check -obs $(SMOKE)/run/obs >/dev/null)
	test -s $(SMOKE)/run/obs/screen.json
	grep -q '"screen.pruned": [1-9]' $(SMOKE)/run/obs/metrics.json
	grep -q '"adversary.pruned_targets": [1-9]' $(SMOKE)/run/obs/metrics.json
	@echo "screen-smoke: screened CSV byte-identical to plain run, screen.json written, pruning active"

# Dispatch-memo acceptance: the memo's unit battery (LRU bounds, one
# dispatch per key under concurrent callers, lazy allocation), the salt that
# ownership does not move, two ownerships of one grid sharing every dispatch
# bit-identically, Fig. 2 solving its grid's baseline once over all actor
# counts, the cache arm of the differential battery, then an end-to-end
# binary check — a run whose figures share one -solve-cache memo must
# produce a CSV byte-identical to the plain run, whose figures each memoize
# their own dispatches.
memo-smoke:
	$(GO) test ./internal/solvecache/ -count=1
	$(GO) test ./internal/impact/ -run 'TestSaltPinsEdgeOrder|TestMemoSharedAcrossOwnerships' -count=1
	$(GO) test ./internal/experiments/ -run 'TestFig2DispatchesGridOnce' -count=1
	$(GO) test -run 'TestDifferentialWarmAndCached' -count=1 .
	$(call fig5-cmp,$(CPSEXP) -solve-cache 4096 -csv $(SMOKE)/run/check >/dev/null)
	@echo "memo-smoke: shared-memo CSV byte-identical to per-figure memos"

# Remove build and scratch artifacts. The reference CSVs committed under
# results/ and the committed bench reports (BENCH_*.json) are deliberately
# preserved: they are reviewed outputs, not build products.
clean:
	$(GO) clean ./...
	rm -f cpsattack cpsdefend cpsexp cpsflow cpsgen cpsservd
	rm -rf /tmp/cpsguard-shard-smoke /tmp/cpsguard-screen-smoke /tmp/cpsguard-memo-smoke .bench_build
	find . -name '*.journal' -not -path './results/*' -delete
	find . -name '*.test' -delete
