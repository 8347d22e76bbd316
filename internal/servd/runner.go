// The runner executes one admitted scenario into a staging directory as a
// full run bundle — the same artifact set cpsexp -obs -csv writes, produced
// by the same experiment runners, so a served result is byte-identical to a
// CLI run of the same configuration. The bundle's manifest carries
// ConfigSHA256 == the scenario's content key (SetConfig over the identical
// flag map), which is what lets the store verify that an entry really is
// the scenario it is addressed as.
package servd

import (
	"context"
	"fmt"
	"path/filepath"

	"cpsguard/internal/atomicio"
	"cpsguard/internal/cli"
	"cpsguard/internal/core"
	"cpsguard/internal/experiments"
	"cpsguard/internal/obs"
	"cpsguard/internal/parallel"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/stats"
)

// A Runner executes one scenario into dir as a complete run bundle whose
// manifest.json is written last and carries ConfigSHA256 == sc.Key().
// Implementations must honor ctx cancellation. Tests substitute stubs;
// production uses ExperimentRunner.
type Runner interface {
	Run(ctx context.Context, sc ScenarioConfig, dir string) error
}

// figureRunners maps ScenarioConfig.Figure to the experiment runner,
// mirroring cpsexp's -fig table.
var figureRunners = map[string]func(experiments.Config) (*stats.Table, error){
	"2": experiments.Fig2, "3": experiments.Fig3, "4": experiments.Fig4,
	"5": experiments.Fig5, "6": experiments.Fig6, "7": experiments.Fig7,
	"baseline":  experiments.BaselineComparison,
	"deception": experiments.Deception,
	"vectors":   experiments.AttackVectors,
	"security":  experiments.SecurityPremium,
	"hardening": experiments.HardeningComparison,
}

// ExperimentRunner is the production Runner: it runs the figure through
// internal/experiments with the service's shared accelerators and streams
// the run's observability bundle live into the staging directory.
type ExperimentRunner struct {
	// Cache is the process-wide dispatch memo shared across every
	// request, so runs over the same grid, whatever their ownership
	// draws, stay hot between runs. Nil leaves each figure run to
	// memoize its own dispatches.
	Cache *solvecache.Cache
	// Hook, when non-nil, is the fault-injection site consulted before
	// every trial ("experiments.trial") — the chaos path through the
	// HTTP API.
	Hook func(site string) error
	// StderrLevel is the minimum level echoed to the server's stderr;
	// the run's own events.jsonl always captures debug.
	StderrLevel obs.Level
	// Workers bounds trial fan-out per run (0 = GOMAXPROCS). A server
	// running several scenarios concurrently should set this below the
	// core count so runs do not trample each other.
	Workers int
}

// Run implements Runner.
func (r *ExperimentRunner) Run(ctx context.Context, sc ScenarioConfig, dir string) error {
	figRunner, ok := figureRunners[sc.Figure]
	if !ok {
		return fmt.Errorf("servd: unknown figure %q", sc.Figure)
	}
	run := cli.StartRun(cli.RunOptions{
		Tool: "cpsservd", Seed: int64(sc.Seed), Dir: dir,
		StderrLevel: r.StderrLevel,
	})
	run.Manifest.SetConfig(sc.FlagMap())
	cfg := experiments.Config{
		Trials:              sc.Trials,
		Seed:                sc.Seed,
		Parallel:            parallel.Options{Context: ctx, Log: run.Log, Workers: r.Workers},
		NoiseMode:           sc.mode(),
		ActorGrid:           sc.ActorGrid,
		SigmaGrid:           sc.SigmaGrid,
		AttackBudget:        sc.AttackBudget,
		SystemDefenseBudget: sc.DefenseBudget,
		PaSamples:           sc.PaSamples,
		Faults:              experiments.FaultPolicy{Hook: r.Hook},
		Log:                 run.Log,
		Cache:               r.Cache,
	}
	if sc.Quick {
		// Identical to cpsexp -quick, so quick scenarios served here are
		// byte-identical to quick CLI runs.
		cfg.Trials = 2
		cfg.ActorGrid = []int{2, 6}
		cfg.SigmaGrid = []float64{0, 0.3}
		cfg.PaSamples = 6
		cfg.NoiseMode = core.MatrixNoise
	}
	tb, err := figRunner(cfg)
	if err != nil {
		run.Manifest.Note("run failed: %v", err)
		run.Close() // keep the bundle diagnosable; the caller discards the dir
		return err
	}
	path := filepath.Join(dir, sc.ArtifactName())
	if err := atomicio.WriteFile(path, []byte(tb.CSV()), 0o644); err != nil {
		run.Close()
		return err
	}
	run.AddOutput(path)
	return run.Close()
}
