// Warm re-solve and solve-cache benchmark report: `make bench-warm` runs
// TestBenchWarmstart with BENCH_WARM_OUT set, which times the impact-matrix
// build (every outage re-solved warm from the baseline basis) and the
// uncached/cached adversary-round pair programmatically and writes
// BENCH_warmstart.json (same cpsguard-bench/v1 envelope as
// BENCH_telemetry.json) pairing each ns/op with the warm and cold pivot
// counters and cache hit/miss counts that explain it. The counters are per
// op: those of one op counted after a warm-up op on the same state, so a
// cached round reads its steady state, and they do not move with b.N.
package cpsguard

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"cpsguard/internal/adversary"
	"cpsguard/internal/atomicio"
	"cpsguard/internal/core"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/telemetry"
	"cpsguard/internal/westgrid"
)

// adversaryRoundOp returns one round — build the ground-truth matrix from
// scratch and run the exact SA search on it, the per-trial unit of the
// experiment sweeps — with every round sharing cache (nil for none).
func adversaryRoundOp(cache *solvecache.Cache) func() error {
	g := westgrid.Build(westgrid.Options{Stress: true})
	return func() error {
		s := core.NewScenario(g, 6, 3)
		s.Cache = cache
		m, err := s.Truth()
		if err != nil {
			return err
		}
		_, err = adversary.Solve(adversary.Config{
			Matrix: m, Targets: s.Targets, Budget: 6,
		})
		return err
	}
}

// adversaryColdOp is a round with no cache — the uncached per-trial cost.
func adversaryColdOp() func() error { return adversaryRoundOp(nil) }

// adversaryCachedOp is a round whose solve cache is shared across rounds,
// as experiments share one across trials.
func adversaryCachedOp() func() error { return adversaryRoundOp(solvecache.New(8192)) }

// runOp times op as a benchmark.
func runOp(b *testing.B, op func() error) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdversaryCold rebuilds the impact matrix and solves the SA each
// iteration with no cache.
func BenchmarkAdversaryCold(b *testing.B) { runOp(b, adversaryColdOp()) }

// BenchmarkAdversaryCached is the same round with one solve cache shared
// across iterations.
func BenchmarkAdversaryCached(b *testing.B) { runOp(b, adversaryCachedOp()) }

// TestBenchWarmstart is gated by BENCH_WARM_OUT: unset, it skips; set, it
// runs the benchmarks, writes the JSON report to that path, and fails if
// any impact-matrix re-solve fell back cold or the cached adversary round
// is not at least 2x faster than the uncached one.
func TestBenchWarmstart(t *testing.T) {
	out := os.Getenv("BENCH_WARM_OUT")
	if out == "" {
		t.Skip("set BENCH_WARM_OUT=path to run the warm re-solve and cache benchmarks")
	}
	benches := []struct {
		name  string
		newOp func() func() error
	}{
		{"ImpactMatrix", impactMatrixOp},
		{"AdversaryCold", adversaryColdOp},
		{"AdversaryCached", adversaryCachedOp},
	}
	reg := telemetry.Default()
	report := benchTelemetryReport{
		Schema:     benchSchema,
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Benchmarks: make(map[string]benchTelemetryEntry, len(benches)),
	}
	for _, bench := range benches {
		r := testing.Benchmark(func(b *testing.B) { runOp(b, bench.newOp()) })
		op := bench.newOp()
		if err := op(); err != nil { // warm-up: fills what ops share
			t.Fatal(err)
		}
		reg.Reset()
		if err := op(); err != nil {
			t.Fatal(err)
		}
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

	if n := report.Benchmarks["ImpactMatrix"].Counters["lp.warm_fallbacks"]; n != 0 {
		t.Errorf("ImpactMatrix: %d warm re-solves fell back cold", n)
	}
	uncached := report.Benchmarks["AdversaryCold"].NsPerOp
	cached := report.Benchmarks["AdversaryCached"].NsPerOp
	if cached <= 0 || uncached < 2*cached {
		t.Errorf("AdversaryCached %d ns/op is not ≥2x faster than AdversaryCold %d ns/op", cached, uncached)
	} else {
		t.Logf("solve-cache speedup: %.1fx (uncached %d → cached %d ns/op)",
			float64(uncached)/float64(cached), uncached, cached)
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
