package cpsguard

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cpsguard/internal/checkpoint"
	"cpsguard/internal/cli"
	"cpsguard/internal/core"
	"cpsguard/internal/experiments"
	"cpsguard/internal/obs"
	"cpsguard/internal/shard"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures and BENCH_*.json reports from current output")

// goldenCfg is a small but fully representative seeded configuration: the
// six-state model, two actor counts, two defender noise levels, two
// ownership draws each, exercising dispatch → impact → SA → Pa estimation →
// defense → settlement end to end.
func goldenCfg() experiments.Config {
	return experiments.Config{
		Trials:    2,
		Seed:      7,
		ActorGrid: []int{2, 4},
		SigmaGrid: []float64{0, 0.2},
		PaSamples: 4,
		NoiseMode: core.MatrixNoise,
	}
}

// TestGoldenFig5CSV locks the full pipeline's numeric output byte-for-byte
// against a committed fixture. Any change to dispatch, impact accounting,
// simplex pivoting, adversary search, Pa sampling, or defense knapsacks that
// shifts a single digit fails here. Regenerate deliberately with
//
//	go test -run TestGoldenFig5CSV -update .
func TestGoldenFig5CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline golden test")
	}
	// Telemetry must be a pure observer: run with the most invasive
	// settings (tracing on) and require the product bytes unchanged.
	telemetry.Default().EnableTracing(true)
	defer telemetry.Default().EnableTracing(false)

	tb, err := experiments.Fig5(goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	got := []byte(tb.CSV())

	path := filepath.Join("testdata", "golden_fig5.csv")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("golden CSV drifted from %s\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// TestGoldenFig5WithObservability re-runs the golden configuration with the
// whole observability stack live — structured event logger on a debug sink,
// run manifest, span tracing at full run capacity — and requires the product
// CSV to stay byte-identical to the committed fixture. The stack is a pure
// observer: if wiring it in shifts a single digit, this fails.
func TestGoldenFig5WithObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline golden test")
	}
	dir := t.TempDir()
	run := cli.StartRun(cli.RunOptions{Tool: "golden", Seed: 7, Dir: dir, StderrLevel: obs.LevelError})

	cfg := goldenCfg()
	cfg.Log = run.Log
	tb, err := experiments.Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Close(); err != nil {
		t.Fatalf("run artifacts: %v", err)
	}
	telemetry.Default().EnableTracing(false)

	want, err := os.ReadFile(filepath.Join("testdata", "golden_fig5.csv"))
	if err != nil {
		t.Fatalf("missing fixture (run TestGoldenFig5CSV with -update to create): %v", err)
	}
	if got := tb.CSV(); got != string(want) {
		t.Fatalf("observability stack perturbed the golden CSV\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	for _, artifact := range []string{"events.jsonl", "metrics.json", "trace.json", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(dir, artifact)); err != nil {
			t.Errorf("run artifact %s not written: %v", artifact, err)
		}
	}
}

// TestGoldenFig5Cached re-runs the golden configuration with the solve
// cache enabled — the accelerated configuration cpsexp exposes as
// -solve-cache — and requires the CSV to stay byte-identical to the
// committed fixture. This is the enforcement of DESIGN.md §12's determinism
// statement: the cache is a pure memo, so a cached re-solve never changes
// which profits are reported.
func TestGoldenFig5Cached(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline golden test")
	}
	cfg := goldenCfg()
	cfg.Cache = solvecache.New(4096)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_fig5.csv"))
	if err != nil {
		t.Fatalf("missing fixture (run TestGoldenFig5CSV with -update to create): %v", err)
	}
	// Two passes over one shared cache, as `cpsexp -fig all` shares one
	// across figures: the first fills it (misses), the second
	// replays the same scenarios from it. Both must render the fixture's
	// exact bytes.
	for pass := 1; pass <= 2; pass++ {
		tb, err := experiments.Fig5(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := tb.CSV(); got != string(want) {
			t.Fatalf("pass %d: solve cache perturbed the golden CSV\n--- want ---\n%s\n--- got ---\n%s",
				pass, want, got)
		}
	}
	st := cfg.Cache.Stats()
	if st.Misses == 0 {
		t.Error("golden run never reached the solve cache: the accelerated path was not exercised")
	}
	if st.Hits == 0 {
		t.Errorf("second pass never hit the solve cache (misses %d): scenario salts are not stable", st.Misses)
	}
}

// TestGoldenRunIsDeterministic re-runs the same configuration and requires
// identical bytes — the in-process version of the two-run determinism
// contract the telemetry layer documents.
func TestGoldenRunIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline determinism test")
	}
	a, err := experiments.Fig5(goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.Fig5(goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.CSV() != b.CSV() {
		t.Fatalf("two identical seeded runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a.CSV(), b.CSV())
	}
}

// TestGoldenFig5Sharded runs the golden configuration as a 2-way sharded
// sweep — each shard journaling only its owned trials into its own
// directory — then merges the journals and re-renders Fig5 in strict replay
// mode. The result must be byte-identical to the committed fixture: sharding
// is a pure execution strategy, never a numeric one.
func TestGoldenFig5Sharded(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline golden test")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_fig5.csv"))
	if err != nil {
		t.Fatalf("missing fixture (run TestGoldenFig5CSV with -update to create): %v", err)
	}

	parent := t.TempDir()
	for i := 0; i < 2; i++ {
		a := shard.Assignment{Index: i, Count: 2}
		dir := filepath.Join(parent, a.DirName())
		j, err := checkpoint.Create(filepath.Join(dir, shard.JournalName), checkpoint.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := goldenCfg()
		sweep := &checkpoint.Sweep{Journal: j}
		cfg.Sweep = sweep
		cfg.Shard = &a
		if _, err := experiments.Fig5(cfg); err != nil {
			t.Fatal(err)
		}
		m := shard.NewManifest(a, cfg.Seed, "golden")
		m.JournalRecords = int(j.Seq())
		m.Executed = sweep.Executed()
		m.Completed = true
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		m.StampJournal(dir)
		if err := m.Write(dir); err != nil {
			t.Fatal(err)
		}
	}

	dirs, err := shard.DiscoverShards(parent)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shard.Merge(dirs, shard.MergeOptions{ExpectKey: "golden"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := goldenCfg()
	sweep := &checkpoint.Sweep{Replay: res.Replay, RequireReplay: true}
	cfg.Sweep = sweep
	tb, err := experiments.Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Executed() != 0 {
		t.Fatalf("merged golden run executed %d trials; strict replay must execute none", sweep.Executed())
	}
	if got := tb.CSV(); got != string(want) {
		t.Fatalf("sharded golden CSV drifted from fixture\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
