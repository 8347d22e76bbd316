// N-k screening benchmark report: `make bench-screen` runs TestBenchScreen
// with BENCH_SCREEN_OUT set, which times a depth-2 vulnerability screen of a
// 64-region national-tier instance and writes BENCH_screen.json (same
// cpsguard-bench/v1 envelope as BENCH_telemetry.json) pairing ns/op with the
// screen.* counters — so the dominance rule's candidate reduction is tracked
// as a number, not an anecdote. The report fails unless the screen pruned at
// least as many contingency sets as it evaluated (a ≥2x reduction of the
// candidate space).
package cpsguard

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/atomicio"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
	"cpsguard/internal/screen"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/telemetry"
)

// screenBenchTargets caps the corridor-target set: 32 targets give a
// 528-pair N-2 space — large enough for the dominance rule to matter,
// small enough that one screen stays in benchmark territory (the full
// 464-corridor space at depth 2 is ~10^5 sets, minutes of solves even
// with pruning).
const screenBenchTargets = 32

// screenBenchInstance builds the shared 64-region national-tier instance
// and its corridor-target slice (transmission and pipeline edges — the
// contingencies N-k studies range over).
func screenBenchInstance(tb testing.TB) (*impact.Analysis, []string) {
	tb.Helper()
	g, err := gridgen.Build(gridgen.Config{
		Regions: 64, Seed: 3, Tier: gridgen.TierNational, Stress: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var corridor []string
	for _, id := range g.AssetIDs() {
		if strings.HasPrefix(id, "tx:") || strings.HasPrefix(id, "pipe:") {
			corridor = append(corridor, id)
		}
	}
	if len(corridor) < screenBenchTargets {
		tb.Fatalf("national instance has %d corridor targets, want ≥ %d", len(corridor), screenBenchTargets)
	}
	an := &impact.Analysis{
		Graph:     g,
		Ownership: actors.RandomOwnership(g, 4, rng.Derive(3, 0x5C12)),
		Cache:     solvecache.New(16384),
	}
	return an, corridor[:screenBenchTargets]
}

// BenchmarkScreenNational times one depth-2 vulnerability screen of the
// 64-region national instance over its capped corridor-target set — the
// production screening stack end to end: solve cache, warm starts, revised
// simplex, dominance pruning.
func BenchmarkScreenNational(b *testing.B) {
	an, targets := screenBenchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := screen.Run(screen.Config{Analysis: an, Targets: targets, K: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBenchScreen is gated by BENCH_SCREEN_OUT: unset, it skips; set, it
// runs the national screening benchmark, writes the JSON report to that
// path, and fails unless the dominance rule pruned at least as many
// contingency sets as were evaluated — the screen must at least halve the
// candidate space on the national instance, or it is not earning its keep.
func TestBenchScreen(t *testing.T) {
	out := os.Getenv("BENCH_SCREEN_OUT")
	if out == "" {
		t.Skip("set BENCH_SCREEN_OUT=path to run the screening benchmark")
	}
	reg := telemetry.Default()
	reg.Reset()
	r := testing.Benchmark(BenchmarkScreenNational)
	snap := reg.Snapshot(telemetry.SnapshotOptions{})
	counters := make(map[string]int64, len(snap.Counters))
	for name, v := range snap.Counters {
		if v != 0 {
			counters[name] = v
		}
	}
	reg.Reset()

	report := benchTelemetryReport{
		Schema:    benchSchema,
		GoVersion: runtime.Version(),
		Platform:  runtime.GOOS + "/" + runtime.GOARCH,
		Benchmarks: map[string]benchTelemetryEntry{
			"ScreenNational": {
				Iterations:  r.N,
				NsPerOp:     r.NsPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
				Counters:    counters,
			},
		},
	}
	t.Logf("ScreenNational: %d iter, %d ns/op, %d counters", r.N, r.NsPerOp(), len(counters))

	for _, c := range []string{"screen.runs", "screen.evaluated", "screen.pruned"} {
		if counters[c] == 0 {
			t.Errorf("ScreenNational recorded no %s counter", c)
		}
	}
	evaluated, pruned := counters["screen.evaluated"], counters["screen.pruned"]
	if pruned < evaluated {
		t.Errorf("dominance rule pruned %d of %d+%d contingency sets — less than half the candidate space",
			pruned, evaluated, pruned)
	} else if evaluated > 0 {
		t.Logf("candidate reduction: %.1fx (%d evaluated of %d total sets)",
			float64(evaluated+pruned)/float64(evaluated), evaluated, evaluated+pruned)
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
