// Revised-simplex benchmark report: `make bench-revised` runs
// TestBenchRevised with BENCH_REVISED_OUT set, which times the sparse
// revised simplex against the dense oracle programmatically and writes
// BENCH_revised.json (same cpsguard-bench/v1 envelope as
// BENCH_telemetry.json) pairing each ns/op with the lp.revised.* pivot,
// factorization, and eta-update counters, so the speedup and the work
// profile that produces it live in one file.
package cpsguard

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"cpsguard/internal/atomicio"
	"cpsguard/internal/flow"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/lp"
	"cpsguard/internal/telemetry"
	"cpsguard/internal/westgrid"
)

// benchNationalDispatch times one full dispatch of a seeded national-tier
// system with the given simplex method. The graph build is outside the
// timed region; every iteration pays the whole standard-form build +
// solve + extraction path, as the impact layer does per perturbation.
func benchNationalDispatch(b *testing.B, regions int, m lp.Method) {
	b.Helper()
	g, err := gridgen.Build(gridgen.Config{
		Regions: regions, Seed: 3, Tier: gridgen.TierNational, Stress: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.DispatchOpts(g, flow.Options{LP: lp.Options{Method: m}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRevisedSimplex dispatches the stressed six-state evaluation
// model with the default options — the production small-instance path,
// which the size rule keeps on the dense kernel.
func BenchmarkRevisedSimplex(b *testing.B) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.DispatchOpts(g, flow.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRevisedNationalGrid dispatches a 256-region national-tier
// system (~2000 buses, ~3800 assets) with the default options, which the
// size rule sends to the sparse kernel — the sparse-LU regime it exists
// for.
func BenchmarkRevisedNationalGrid(b *testing.B) {
	benchNationalDispatch(b, 256, lp.MethodAuto)
}

// The oracle comparison pair shares one 64-region national instance, the
// largest where the dense tableau's quadratic per-pivot cost stays
// benchmarkable (seconds, not minutes, per solve).

// BenchmarkRevisedNationalOracle is the sparse half of the pair: the
// default options, above the dense crossover.
func BenchmarkRevisedNationalOracle(b *testing.B) {
	benchNationalDispatch(b, 64, lp.MethodAuto)
}

// BenchmarkDenseNationalOracle is the dense half. It costs seconds per
// iteration, so it only runs under make bench-revised; the bench-smoke
// one-iteration pass in ci skips it.
func BenchmarkDenseNationalOracle(b *testing.B) {
	if os.Getenv("BENCH_REVISED_OUT") == "" {
		b.Skip("dense national solve costs seconds per op; set BENCH_REVISED_OUT (make bench-revised) to run")
	}
	benchNationalDispatch(b, 64, lp.MethodDense)
}

// TestBenchRevised is gated by BENCH_REVISED_OUT: unset, it skips; set, it
// runs the revised benchmarks plus the dense oracle on the shared national
// instance, writes the JSON report to that path, and fails unless the
// revised method is at least 5x faster than the dense oracle on it.
func TestBenchRevised(t *testing.T) {
	out := os.Getenv("BENCH_REVISED_OUT")
	if out == "" {
		t.Skip("set BENCH_REVISED_OUT=path to run the revised-simplex benchmark sweep")
	}
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"RevisedSimplex", BenchmarkRevisedSimplex},
		{"RevisedNationalGrid", BenchmarkRevisedNationalGrid},
		{"RevisedNationalOracle", BenchmarkRevisedNationalOracle},
		{"DenseNationalOracle", BenchmarkDenseNationalOracle},
	}
	reg := telemetry.Default()
	report := benchTelemetryReport{
		Schema:     benchSchema,
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Benchmarks: make(map[string]benchTelemetryEntry, len(benches)),
	}
	for _, bench := range benches {
		reg.Reset()
		r := testing.Benchmark(bench.fn)
		snap := reg.Snapshot(telemetry.SnapshotOptions{})
		counters := make(map[string]int64, len(snap.Counters))
		for name, v := range snap.Counters {
			if v != 0 {
				counters[name] = v
			}
		}
		report.Benchmarks[bench.name] = benchTelemetryEntry{
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Counters:    counters,
		}
		t.Logf("%s: %d iter, %d ns/op, %d counters", bench.name, r.N, r.NsPerOp(), len(counters))
	}
	reg.Reset()

	// The pivot work must be attributed: a revised entry without its
	// lp.revised.* counters means the telemetry wiring regressed.
	natl := report.Benchmarks["RevisedNationalGrid"].Counters
	for _, c := range []string{"lp.revised.solves", "lp.revised.factorizations",
		"lp.revised.eta_updates", "lp.revised.ftran_solves", "lp.revised.btran_solves"} {
		if natl[c] == 0 {
			t.Errorf("RevisedNationalGrid recorded no %s counter", c)
		}
	}

	dense := report.Benchmarks["DenseNationalOracle"].NsPerOp
	rev := report.Benchmarks["RevisedNationalOracle"].NsPerOp
	if rev <= 0 || dense < 5*rev {
		t.Errorf("RevisedNationalOracle %d ns/op is not ≥5x faster than DenseNationalOracle %d ns/op", rev, dense)
	} else {
		t.Logf("national-scale speedup: %.1fx (dense %d → revised %d ns/op)",
			float64(dense)/float64(rev), dense, rev)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := atomicio.MkdirAllAndWrite(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", out, len(data))
}

// TestBenchRevisedSchema pins BENCH_revised.json to the cpsguard-bench/v1
// envelope and the lp.revised.* counter names downstream trackers key on:
// renaming either is a breaking change that must bump benchSchema.
func TestBenchRevisedSchema(t *testing.T) {
	report := benchTelemetryReport{
		Schema: benchSchema, GoVersion: "go0.0", Platform: "test/none",
		Benchmarks: map[string]benchTelemetryEntry{
			"RevisedNationalGrid": {Iterations: 1, NsPerOp: 2,
				Counters: map[string]int64{"lp.revised.eta_updates": 3}},
		},
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "go_version", "platform", "benchmarks"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("envelope missing key %q", key)
		}
	}
	if len(raw) != 4 {
		t.Errorf("envelope has %d top-level keys, want 4 (schema change requires a version bump)", len(raw))
	}
	var back benchTelemetryReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != benchSchema || back.Benchmarks["RevisedNationalGrid"].Counters["lp.revised.eta_updates"] != 3 {
		t.Errorf("round trip mangled report: %+v", back)
	}

	// The counter names themselves: one dispatch above the dense crossover
	// must populate every counter family §15 documents.
	reg := telemetry.Default()
	reg.Reset()
	defer reg.Reset()
	g, err := gridgen.Build(gridgen.Config{Regions: 64, Seed: 3, Tier: gridgen.TierNational})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flow.DispatchOpts(g, flow.Options{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot(telemetry.SnapshotOptions{})
	for _, c := range []string{"lp.revised.solves", "lp.revised.factorizations",
		"lp.revised.eta_updates", "lp.revised.ftran_solves", "lp.revised.btran_solves"} {
		if snap.Counters[c] == 0 {
			t.Errorf("revised dispatch solve left counter %s at zero", c)
		}
	}
}
