// Bench-with-telemetry harness: `make bench` runs TestBenchTelemetry with
// BENCH_OUT set, which executes the solver-layer benchmarks programmatically
// and pairs each timing with the telemetry counters of one op (pivots per LP
// solve, nodes per branch and bound, evaluations per SA search, journal
// appends per trial). The result is a machine-readable BENCH_telemetry.json
// for tracking cost regressions alongside work counts.
package cpsguard

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"cpsguard/internal/atomicio"
	"cpsguard/internal/telemetry"
)

// benchSchema versions the BENCH_telemetry.json layout. Consumers (CI
// regression trackers, cpsreport-style analyzers) should reject files whose
// schema they do not recognize rather than guess; bump the suffix on any
// incompatible change.
const benchSchema = "cpsguard-bench/v1"

// benchTelemetryReport is the file-level envelope of BENCH_telemetry.json.
type benchTelemetryReport struct {
	Schema     string                         `json:"schema"`
	GoVersion  string                         `json:"go_version"`
	Platform   string                         `json:"platform"`
	Benchmarks map[string]benchTelemetryEntry `json:"benchmarks"`
}

// benchTelemetryEntry is one benchmark's timing plus its deterministic work
// counters, those of one op (see benchOneOp), so they do not move with b.N.
type benchTelemetryEntry struct {
	Iterations  int              `json:"iterations"`
	NsPerOp     int64            `json:"ns_per_op"`
	AllocsPerOp int64            `json:"allocs_per_op"`
	BytesPerOp  int64            `json:"bytes_per_op"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// runOp times op as a benchmark.
func runOp(b *testing.B, op func() error) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOneOp times the ops newOp makes, then counts the telemetry of one op
// run after a warm-up op on a fresh instance: a cached op reads its steady
// state, and the counters do not move with b.N.
func benchOneOp(t *testing.T, name string, newOp func() func() error) benchTelemetryEntry {
	t.Helper()
	r := testing.Benchmark(func(b *testing.B) { runOp(b, newOp()) })
	op := newOp()
	if err := op(); err != nil { // warm-up: fills what ops share
		t.Fatal(err)
	}
	reg := telemetry.Default()
	reg.Reset()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot(telemetry.SnapshotOptions{})
	reg.Reset()
	counters := make(map[string]int64, len(snap.Counters))
	for name, v := range snap.Counters {
		if v != 0 {
			counters[name] = v
		}
	}
	t.Logf("%s: %d iter, %d ns/op, %d counters", name, r.N, r.NsPerOp(), len(counters))
	return benchTelemetryEntry{
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Counters:    counters,
	}
}

// TestBenchTelemetry is gated by BENCH_OUT: unset, it skips (so plain
// `go test ./...` stays fast); set, it benchmarks the solver layer and
// writes the JSON report to that path.
func TestBenchTelemetry(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("set BENCH_OUT=path to run the telemetry benchmark sweep")
	}
	benches := []struct {
		name  string
		newOp func() func() error
	}{
		{"LPSolve", lpSolveOp},
		{"MILPSolve", milpSolveOp},
		{"AdversaryResilient", func() func() error { return adversaryResilientOp(t) }},
		{"ExperimentsTrial", experimentsTrialOp},
	}
	report := benchTelemetryReport{
		Schema:     benchSchema,
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Benchmarks: make(map[string]benchTelemetryEntry, len(benches)),
	}
	for _, bench := range benches {
		report.Benchmarks[bench.name] = benchOneOp(t, bench.name, bench.newOp)
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

// TestBenchTelemetrySchema pins the file envelope: the schema tag and the
// exact top-level key set. Downstream trackers key on these names; renaming
// one is a breaking change that must bump benchSchema.
func TestBenchTelemetrySchema(t *testing.T) {
	report := benchTelemetryReport{
		Schema: benchSchema, GoVersion: "go0.0", Platform: "test/none",
		Benchmarks: map[string]benchTelemetryEntry{
			"LPSolve": {Iterations: 1, NsPerOp: 2, Counters: map[string]int64{"lp.pivots": 3}},
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
	if back.Schema != benchSchema || back.Benchmarks["LPSolve"].Counters["lp.pivots"] != 3 {
		t.Errorf("round trip mangled report: %+v", back)
	}
}
