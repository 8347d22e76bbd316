// Package experiments regenerates every figure of the paper's evaluation
// (Section III) as a stats.Table: Figure 2 (gains and losses vs number of
// actors), Figure 3 (SA profit vs knowledge noise across actor counts),
// Figure 4 (anticipated vs observed SA profit), Figure 5 (defense
// effectiveness vs defender noise across actor counts), Figure 6
// (collaborative vs independent defense for 4 actors), and Figure 7
// (collaboration benefit across actor counts).
//
// Every point is a mean over Config.Trials random ownership draws (the
// paper's "multiple random sets of actors ... results taken as means"),
// with trials fanned out across cores; the reported error bars are standard
// errors over trials. All randomness derives from Config.Seed, so runs are
// reproducible.
package experiments

import (
	"context"
	"fmt"

	"cpsguard/internal/adversary"
	"cpsguard/internal/checkpoint"
	"cpsguard/internal/core"
	"cpsguard/internal/graph"
	"cpsguard/internal/obs"
	"cpsguard/internal/parallel"
	"cpsguard/internal/rng"
	"cpsguard/internal/shard"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/stats"
	"cpsguard/internal/westgrid"
)

// Config parameterizes all experiment runners.
type Config struct {
	// Graph is the system under study (default: stressed westgrid).
	Graph *graph.Graph
	// Trials is the number of random ownership draws per point
	// (default 5).
	Trials int
	// Seed drives all randomness (default 1).
	Seed uint64
	// Parallel fans trials out across cores.
	Parallel parallel.Options
	// NoiseMode selects how noisy views are derived (default
	// core.GraphNoise, the paper-faithful formulation; use
	// core.MatrixNoise for fast sweeps).
	NoiseMode core.NoiseMode
	// ActorGrid overrides the actor-count axis where applicable.
	ActorGrid []int
	// SigmaGrid overrides the knowledge-noise axis where applicable.
	SigmaGrid []float64
	// AttackBudget is the SA's budget MA with unit costs (default 6,
	// the paper's "maximum of six targets" in Experiment 2; Experiments
	// 3's fixed attack uses 1 internally).
	AttackBudget float64
	// SystemDefenseBudget is the fixed system-wide defense budget that
	// is split evenly among actors (default 12 — the paper's "12
	// assets").
	SystemDefenseBudget float64
	// PaSamples is the number of speculated-SA samples for Pa
	// estimation (default 16).
	PaSamples int
	// Faults governs per-trial failure tolerance (default: strict — any
	// trial failure fails the experiment). See FaultPolicy.
	Faults FaultPolicy
	// Shard, when non-nil, restricts execution to the slice of trials
	// this shard owns (trial index mod Shard.Count == Shard.Index).
	// Unowned trials are skipped entirely — not run, not journaled, not
	// counted against the fault policy — so n shard processes given the
	// same seed and grids partition the sweep exactly, and the union of
	// their journals replays (internal/shard.Merge) to output
	// byte-identical to an unsharded run. Tables produced by a sharded
	// run aggregate only the owned trials and are not meaningful; the
	// shard's product is its journal.
	Shard *shard.Assignment
	// Sweep, when non-nil, makes the sweep crash-safe: every trial
	// outcome streams to the sweep's journal as it settles, trials
	// journaled by a previous (interrupted) run are replayed instead of
	// re-run, transient failures are retried with capped backoff, and
	// overlong trials are flagged/requeued by the watchdog. Because each
	// trial's randomness derives from its (seed, point, trial) key, a
	// resumed figure is byte-identical to an uninterrupted one.
	Sweep *checkpoint.Sweep
	// Log, when non-nil, receives structured progress events: point
	// start/finish at debug, tolerated trial failures at warn, point
	// failures at error, each stamped with the point as its stage and
	// failed trials with their durable trial ID. A nil logger is silent;
	// logging is an observer only and never changes results.
	Log *obs.Logger
	// Cache, when non-nil, is the dispatch memo shared by every trial of
	// every figure run with this Config, so a grid dispatched by one figure
	// is not re-solved by the next. When nil, each figure runner memoizes
	// its own dispatches in a memo of eight impact matrices' worth,
	// 8 × (edges + 1) entries, dropped when the runner returns: every actor
	// count and ownership draw of a figure dispatches the same grids
	// (ownership never enters the dispatch LP), and noisy views repeat
	// across actor counts and rounds. Safe under trial parallelism and
	// result-neutral: entries are keyed by graph fingerprint, and each
	// reader divides a dispatch with its own ownership.
	Cache *solvecache.Cache
	// WarmStart is ignored: every scenario carries or re-solves its
	// perturbed dispatches from the baseline optimum.
	//
	// Deprecated: ignored.
	WarmStart bool
	// ScreenK, when > 0, is the outage depth of the Interventions sweep's
	// vulnerability screen (default 2). No figure's adversary reads it.
	ScreenK int
	// InterventionBudget is the capital budget of the Interventions sweep
	// (default: half the candidate menu's total cost).
	InterventionBudget float64
	// InterventionMax caps the candidate menu of the Interventions sweep
	// (default 12).
	InterventionMax int
	// TrialIndices, when non-nil, restricts the Interventions sweep to
	// these trial (candidate) indices. Trial identity follows the absolute
	// index, so sparse pieces journal exactly what a dense run would and
	// merge losslessly (see runTrialsAt).
	TrialIndices []int
}

func (c Config) graph() *graph.Graph {
	if c.Graph != nil {
		return c.Graph
	}
	return westgrid.Build(westgrid.Options{Stress: true})
}

func (c Config) trials() int {
	if c.Trials > 0 {
		return c.Trials
	}
	return 5
}

func (c Config) seed() uint64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 1
}

func (c Config) actorGrid(def []int) []int {
	if len(c.ActorGrid) > 0 {
		return c.ActorGrid
	}
	return def
}

func (c Config) sigmaGrid() []float64 {
	if len(c.SigmaGrid) > 0 {
		return c.SigmaGrid
	}
	return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
}

func (c Config) attackBudget() float64 {
	if c.AttackBudget > 0 {
		return c.AttackBudget
	}
	return 6
}

func (c Config) systemDefenseBudget() float64 {
	if c.SystemDefenseBudget > 0 {
		return c.SystemDefenseBudget
	}
	return 12
}

// withMemo returns c with a dispatch memo: Cache when the caller set one,
// else a fresh memo of eight impact matrices of c's graph, which the figure
// runner drops when it returns.
func (c Config) withMemo() Config {
	if c.Cache == nil {
		c.Cache = solvecache.New(8 * (len(c.graph().Edges) + 1))
	}
	return c
}

// scenarioFor builds the trial'th scenario with n actors.
func (c Config) scenarioFor(n int, trial int) *core.Scenario {
	g := c.graph()
	seed := c.seed() ^ (uint64(n) << 32) ^ uint64(trial)*0x9E37
	s := core.NewScenario(g, n, seed)
	s.Parallel = parallel.Options{Workers: 1} // trials already parallel
	s.Cache = c.Cache
	return s
}

// Fig2 measures the total gain and total loss across all single-asset
// attacks as the number of actors grows (paper Figure 2): gains rise with
// competition and saturate near the system's 12 points of competition,
// while gain + loss tracks the (constant) total welfare damage.
func Fig2(cfg Config) (*stats.Table, error) {
	cfg = cfg.withMemo()
	t := &stats.Table{
		Title:  "Fig 2: system gain/loss vs number of actors",
		XLabel: "actors",
		YLabel: "sum of per-actor impact ($k/day)",
	}
	gainS := t.AddSeries("gain")
	lossS := t.AddSeries("-loss")
	netS := t.AddSeries("gain+loss")
	for _, n := range cfg.actorGrid([]int{2, 4, 6, 8, 10, 12, 14, 16}) {
		// Exported fields: trial values must survive the JSON round-trip
		// through the checkpoint journal.
		type gl struct{ Gain, Loss float64 }
		vals, err := runTrials(cfg, fmt.Sprintf("fig2 n=%d", n),
			func(ctx context.Context, trial int) (gl, error) {
				s := cfg.scenarioFor(n, trial)
				m, err := s.Truth()
				if err != nil {
					return gl{}, err
				}
				g, l := m.GainLoss()
				return gl{g, l}, nil
			})
		if err != nil {
			return nil, err
		}
		var ga, la, na stats.Accumulator
		for _, v := range vals {
			ga.Add(v.Gain)
			la.Add(-v.Loss)
			na.Add(v.Gain + v.Loss)
		}
		gainS.Add(float64(n), ga.Mean(), ga.StdErr())
		lossS.Add(float64(n), la.Mean(), la.StdErr())
		netS.Add(float64(n), na.Mean(), na.StdErr())
	}
	return t, nil
}

// Fig3 measures the SA's realized profit versus her knowledge noise, one
// series per actor count (paper Figure 3): profit decays with noise and
// grows with the number of actors.
func Fig3(cfg Config) (*stats.Table, error) {
	cfg = cfg.withMemo()
	t := &stats.Table{
		Title:  "Fig 3: SA profitability vs knowledge noise",
		XLabel: "sigma",
		YLabel: "SA realized profit ($k/day)",
	}
	for _, n := range cfg.actorGrid([]int{2, 4, 6, 12}) {
		series := t.AddSeries(fmt.Sprintf("%d actors", n))
		// One scenario (with cached truth) per trial, reused across σ.
		scens := make([]*core.Scenario, cfg.trials())
		for i := range scens {
			scens[i] = cfg.scenarioFor(n, i)
		}
		for _, sigma := range cfg.sigmaGrid() {
			mean, se, err := meanOfTrials(cfg, fmt.Sprintf("fig3 n=%d σ=%v", n, sigma),
				func(ctx context.Context, trial int) (float64, error) {
					s := scens[trial]
					truth, err := s.Truth()
					if err != nil {
						return 0, err
					}
					view, err := s.View(sigma, cfg.NoiseMode,
						rng.Derive(cfg.seed()^0xF13, uint64(trial)<<16|uint64(sigma*1000)))
					if err != nil {
						return 0, err
					}
					plan, err := adversary.Solve(adversary.Config{
						Matrix: view, Targets: s.Targets, Budget: cfg.attackBudget(),
						Ctx: ctx,
					})
					if err != nil {
						return 0, err
					}
					return adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{}), nil
				})
			if err != nil {
				return nil, err
			}
			series.Add(sigma, mean, se)
		}
	}
	return t, nil
}

// Fig4 compares the SA's anticipated profit (under her noisy model) to the
// observed ground-truth profit for a 6-actor system (paper Figure 4):
// anticipation stays flat while observation decays — the overconfidence
// that motivates deception defenses.
func Fig4(cfg Config) (*stats.Table, error) {
	cfg = cfg.withMemo()
	t := &stats.Table{
		Title:  "Fig 4: SA anticipated vs observed profit (6 actors)",
		XLabel: "sigma",
		YLabel: "SA profit ($k/day)",
	}
	const n = 6
	antS := t.AddSeries("anticipated")
	obsS := t.AddSeries("observed")
	scens := make([]*core.Scenario, cfg.trials())
	for i := range scens {
		scens[i] = cfg.scenarioFor(n, i)
	}
	for _, sigma := range cfg.sigmaGrid() {
		type pair struct{ Ant, Obs float64 }
		vals, err := runTrials(cfg, fmt.Sprintf("fig4 σ=%v", sigma),
			func(ctx context.Context, trial int) (pair, error) {
				s := scens[trial]
				truth, err := s.Truth()
				if err != nil {
					return pair{}, err
				}
				view, err := s.View(sigma, cfg.NoiseMode,
					rng.Derive(cfg.seed()^0xF14, uint64(trial)<<16|uint64(sigma*1000)))
				if err != nil {
					return pair{}, err
				}
				plan, err := adversary.Solve(adversary.Config{
					Matrix: view, Targets: s.Targets, Budget: cfg.attackBudget(),
					Ctx: ctx,
				})
				if err != nil {
					return pair{}, err
				}
				obs := adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{})
				return pair{plan.Anticipated, obs}, nil
			})
		if err != nil {
			return nil, err
		}
		var aa, oa stats.Accumulator
		for _, v := range vals {
			aa.Add(v.Ant)
			oa.Add(v.Obs)
		}
		antS.Add(sigma, aa.Mean(), aa.StdErr())
		obsS.Add(sigma, oa.Mean(), oa.StdErr())
	}
	return t, nil
}

// defenseEffectiveness runs one full game round and returns the paper's
// Fig. 5 metric. The trial context is threaded into the round so
// cancellation stops in-flight solves.
func defenseEffectiveness(ctx context.Context, s *core.Scenario, cfg Config, sigma float64,
	nActors int, collaborative bool, seed uint64) (float64, error) {
	res, err := core.PlayRound(s, core.GameConfig{
		Ctx:                   ctx,
		AttackBudget:          1, // the paper's "fixed attack (single asset)"
		AttackerSigma:         0,
		DefenderSigma:         sigma,
		SpeculatedSigma:       sigma,
		DefenseBudgetPerActor: cfg.systemDefenseBudget() / float64(nActors),
		Collaborative:         collaborative,
		PaSamples:             cfg.PaSamples,
		NoiseMode:             cfg.NoiseMode,
		Seed:                  seed,
	})
	if err != nil {
		return 0, err
	}
	return res.Effectiveness, nil
}

// Fig5 measures independent-defense effectiveness versus defender noise,
// one series per actor count (paper Figure 5): effectiveness decays with
// noise and with actor count (shrinking per-actor budgets + misaligned
// ownership).
func Fig5(cfg Config) (*stats.Table, error) {
	cfg = cfg.withMemo()
	t := &stats.Table{
		Title:  "Fig 5: defense effectiveness vs defender noise",
		XLabel: "sigma",
		YLabel: "impact reduction ($k/day)",
	}
	for _, n := range cfg.actorGrid([]int{2, 4, 6, 12}) {
		series := t.AddSeries(fmt.Sprintf("%d actors", n))
		scens := make([]*core.Scenario, cfg.trials())
		for i := range scens {
			scens[i] = cfg.scenarioFor(n, i)
		}
		for _, sigma := range cfg.sigmaGrid() {
			mean, se, err := meanOfTrials(cfg, fmt.Sprintf("fig5 n=%d σ=%v", n, sigma),
				func(ctx context.Context, trial int) (float64, error) {
					return defenseEffectiveness(ctx, scens[trial], cfg, sigma, n, false,
						cfg.seed()^0xF15^uint64(trial)<<20^uint64(sigma*1000))
				})
			if err != nil {
				return nil, err
			}
			series.Add(sigma, mean, se)
		}
	}
	return t, nil
}

// Fig6 compares collaborative and independent defense for a 4-actor system
// across defender noise (paper Figure 6).
func Fig6(cfg Config) (*stats.Table, error) {
	cfg = cfg.withMemo()
	t := &stats.Table{
		Title:  "Fig 6: collaboration vs independent defense (4 actors)",
		XLabel: "sigma",
		YLabel: "impact reduction ($k/day)",
	}
	const n = 4
	indep := t.AddSeries("independent")
	collab := t.AddSeries("collaborative")
	scens := make([]*core.Scenario, cfg.trials())
	for i := range scens {
		scens[i] = cfg.scenarioFor(n, i)
	}
	for _, sigma := range cfg.sigmaGrid() {
		type pair struct{ Ind, Col float64 }
		vals, err := runTrials(cfg, fmt.Sprintf("fig6 σ=%v", sigma),
			func(ctx context.Context, trial int) (pair, error) {
				seed := cfg.seed() ^ 0xF16 ^ uint64(trial)<<20 ^ uint64(sigma*1000)
				ind, err := defenseEffectiveness(ctx, scens[trial], cfg, sigma, n, false, seed)
				if err != nil {
					return pair{}, err
				}
				col, err := defenseEffectiveness(ctx, scens[trial], cfg, sigma, n, true, seed)
				if err != nil {
					return pair{}, err
				}
				return pair{ind, col}, nil
			})
		if err != nil {
			return nil, err
		}
		var ia, ca stats.Accumulator
		for _, v := range vals {
			ia.Add(v.Ind)
			ca.Add(v.Col)
		}
		indep.Add(sigma, ia.Mean(), ia.StdErr())
		collab.Add(sigma, ca.Mean(), ca.StdErr())
	}
	return t, nil
}

// Fig7 compares the collaboration benefit across actor counts at a fixed
// moderate noise level (paper Figure 7): the benefit grows with actor count
// as incentives fragment, then is counteracted by dwindling per-actor
// budgets at high counts.
func Fig7(cfg Config) (*stats.Table, error) {
	cfg = cfg.withMemo()
	t := &stats.Table{
		Title:  "Fig 7: collaboration benefit vs number of actors",
		XLabel: "actors",
		YLabel: "impact reduction ($k/day)",
	}
	const sigma = 0.1
	indep := t.AddSeries("independent")
	collab := t.AddSeries("collaborative")
	benefit := t.AddSeries("benefit")
	for _, n := range cfg.actorGrid([]int{2, 4, 6, 12}) {
		scens := make([]*core.Scenario, cfg.trials())
		for i := range scens {
			scens[i] = cfg.scenarioFor(n, i)
		}
		type pair struct{ Ind, Col float64 }
		vals, err := runTrials(cfg, fmt.Sprintf("fig7 n=%d", n),
			func(ctx context.Context, trial int) (pair, error) {
				seed := cfg.seed() ^ 0xF17 ^ uint64(trial)<<20 ^ uint64(n)
				ind, err := defenseEffectiveness(ctx, scens[trial], cfg, sigma, n, false, seed)
				if err != nil {
					return pair{}, err
				}
				col, err := defenseEffectiveness(ctx, scens[trial], cfg, sigma, n, true, seed)
				if err != nil {
					return pair{}, err
				}
				return pair{ind, col}, nil
			})
		if err != nil {
			return nil, err
		}
		var ia, ca, ba stats.Accumulator
		for _, v := range vals {
			ia.Add(v.Ind)
			ca.Add(v.Col)
			ba.Add(v.Col - v.Ind)
		}
		indep.Add(float64(n), ia.Mean(), ia.StdErr())
		collab.Add(float64(n), ca.Mean(), ca.StdErr())
		benefit.Add(float64(n), ba.Mean(), ba.StdErr())
	}
	return t, nil
}

// All runs every figure and returns them keyed by "fig2".."fig7".
func All(cfg Config) (map[string]*stats.Table, error) {
	runners := map[string]func(Config) (*stats.Table, error){
		"fig2": Fig2, "fig3": Fig3, "fig4": Fig4,
		"fig5": Fig5, "fig6": Fig6, "fig7": Fig7,
	}
	out := map[string]*stats.Table{}
	for name, run := range runners {
		tb, err := run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		out[name] = tb
	}
	return out, nil
}
