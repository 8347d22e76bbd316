// Bench-with-telemetry harness: `make bench` runs TestBenchTelemetry with
// BENCH_OUT set, which executes the solver-layer benchmarks programmatically
// and pairs each timing with the telemetry counter deltas it produced
// (pivots per LP solve, nodes per branch and bound, evaluations per SA
// search, journal appends per trial). The result is a machine-readable
// BENCH_telemetry.json for tracking cost regressions alongside work counts.
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
// counters: BENCH_telemetry.json sums them over all its iterations,
// BENCH_warmstart.json counts one op.
type benchTelemetryEntry struct {
	Iterations  int              `json:"iterations"`
	NsPerOp     int64            `json:"ns_per_op"`
	AllocsPerOp int64            `json:"allocs_per_op"`
	BytesPerOp  int64            `json:"bytes_per_op"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// TestBenchTelemetry is gated by BENCH_OUT: unset, it skips (so plain
// `go test ./...` stays fast); set, it benchmarks the solver layer and
// writes the JSON report to that path. The registry is reset around each
// benchmark so counters attribute to exactly one workload.
func TestBenchTelemetry(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("set BENCH_OUT=path to run the telemetry benchmark sweep")
	}
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"LPSolve", BenchmarkLPSolve},
		{"MILPSolve", BenchmarkMILPSolve},
		{"AdversaryResilient", BenchmarkAdversaryResilient},
		{"ExperimentsTrial", BenchmarkExperimentsTrial},
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
