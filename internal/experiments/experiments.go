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

// Quick returns c shrunk to the fast smoke preset that cpsexp -quick and
// quick service scenarios share: two trials per point, actor counts {2, 6},
// σ ∈ {0, 0.3}, six Pa samples and matrix noise.
func (c Config) Quick() Config {
	c.Trials = 2
	c.ActorGrid = []int{2, 6}
	c.SigmaGrid = []float64{0, 0.3}
	c.PaSamples = 6
	c.NoiseMode = core.MatrixNoise
	return c
}

// scenarios builds one scenario with n actors per trial. A runner builds them
// once per actor count, so a scenario's cached truth serves every σ of it.
func (c Config) scenarios(n int) []*core.Scenario {
	g := c.graph()
	out := make([]*core.Scenario, c.trials())
	for trial := range out {
		seed := c.seed() ^ (uint64(n) << 32) ^ uint64(trial)*0x9E37
		s := core.NewScenario(g, n, seed)
		s.Parallel = parallel.Options{Workers: 1} // trials already parallel
		s.Cache = c.Cache
		out[trial] = s
	}
	return out
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
	series := []*stats.Series{t.AddSeries("gain"), t.AddSeries("-loss"), t.AddSeries("gain+loss")}
	for _, n := range cfg.actorGrid([]int{2, 4, 6, 8, 10, 12, 14, 16}) {
		scens := cfg.scenarios(n)
		err := addPoint(cfg, fmt.Sprintf("fig2 n=%d", n), float64(n), series,
			func(ctx context.Context, trial int) ([]float64, error) {
				m, err := scens[trial].Truth()
				if err != nil {
					return nil, err
				}
				g, l := m.GainLoss()
				return []float64{g, -l, g + l}, nil
			})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// noisyAttack plans the SA's attack on the trial's σ-noisy view of s with
// the configured budget and returns the plan's anticipated profit and the
// profit it realizes on the ground truth. salt keeps each figure's view
// draws apart.
func noisyAttack(ctx context.Context, cfg Config, s *core.Scenario, sigma float64,
	salt uint64, trial int) (anticipated, realized float64, err error) {
	truth, err := s.Truth()
	if err != nil {
		return 0, 0, err
	}
	view, err := s.View(sigma, cfg.NoiseMode,
		rng.Derive(cfg.seed()^salt, uint64(trial)<<16|uint64(sigma*1000)))
	if err != nil {
		return 0, 0, err
	}
	plan, err := adversary.Solve(adversary.Config{
		Matrix: view, Targets: s.Targets, Budget: cfg.attackBudget(), Ctx: ctx,
	})
	if err != nil {
		return 0, 0, err
	}
	return plan.Anticipated, adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{}), nil
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
		series := []*stats.Series{t.AddSeries(fmt.Sprintf("%d actors", n))}
		scens := cfg.scenarios(n)
		for _, sigma := range cfg.sigmaGrid() {
			err := addPoint(cfg, fmt.Sprintf("fig3 n=%d σ=%v", n, sigma), sigma, series,
				func(ctx context.Context, trial int) ([]float64, error) {
					_, obs, err := noisyAttack(ctx, cfg, scens[trial], sigma, 0xF13, trial)
					return []float64{obs}, err
				})
			if err != nil {
				return nil, err
			}
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
	series := []*stats.Series{t.AddSeries("anticipated"), t.AddSeries("observed")}
	scens := cfg.scenarios(n)
	for _, sigma := range cfg.sigmaGrid() {
		err := addPoint(cfg, fmt.Sprintf("fig4 σ=%v", sigma), sigma, series,
			func(ctx context.Context, trial int) ([]float64, error) {
				ant, obs, err := noisyAttack(ctx, cfg, scens[trial], sigma, 0xF14, trial)
				return []float64{ant, obs}, err
			})
		if err != nil {
			return nil, err
		}
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

// effectivenessPair plays the independent and then the collaborative round
// of one trial on the same seed and returns both effectivenesses.
func effectivenessPair(ctx context.Context, s *core.Scenario, cfg Config, sigma float64,
	nActors int, seed uint64) (ind, col float64, err error) {
	if ind, err = defenseEffectiveness(ctx, s, cfg, sigma, nActors, false, seed); err != nil {
		return 0, 0, err
	}
	col, err = defenseEffectiveness(ctx, s, cfg, sigma, nActors, true, seed)
	return ind, col, err
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
		series := []*stats.Series{t.AddSeries(fmt.Sprintf("%d actors", n))}
		scens := cfg.scenarios(n)
		for _, sigma := range cfg.sigmaGrid() {
			err := addPoint(cfg, fmt.Sprintf("fig5 n=%d σ=%v", n, sigma), sigma, series,
				func(ctx context.Context, trial int) ([]float64, error) {
					eff, err := defenseEffectiveness(ctx, scens[trial], cfg, sigma, n, false,
						cfg.seed()^0xF15^uint64(trial)<<20^uint64(sigma*1000))
					return []float64{eff}, err
				})
			if err != nil {
				return nil, err
			}
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
	series := []*stats.Series{t.AddSeries("independent"), t.AddSeries("collaborative")}
	scens := cfg.scenarios(n)
	for _, sigma := range cfg.sigmaGrid() {
		err := addPoint(cfg, fmt.Sprintf("fig6 σ=%v", sigma), sigma, series,
			func(ctx context.Context, trial int) ([]float64, error) {
				ind, col, err := effectivenessPair(ctx, scens[trial], cfg, sigma, n,
					cfg.seed()^0xF16^uint64(trial)<<20^uint64(sigma*1000))
				return []float64{ind, col}, err
			})
		if err != nil {
			return nil, err
		}
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
	series := []*stats.Series{t.AddSeries("independent"), t.AddSeries("collaborative"), t.AddSeries("benefit")}
	for _, n := range cfg.actorGrid([]int{2, 4, 6, 12}) {
		scens := cfg.scenarios(n)
		err := addPoint(cfg, fmt.Sprintf("fig7 n=%d", n), float64(n), series,
			func(ctx context.Context, trial int) ([]float64, error) {
				ind, col, err := effectivenessPair(ctx, scens[trial], cfg, sigma, n,
					cfg.seed()^0xF17^uint64(trial)<<20^uint64(n))
				return []float64{ind, col, col - ind}, err
			})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// A Figure is one entry of the figure registry: the name cpsexp -fig and
// the scenario service select it by, its group, and its runner.
type Figure struct {
	// Name is "2".."7" for the paper's figures, else the extension's name.
	Name string
	// Group is "paper" for the paper's Figures 2–7 and "ext" for the
	// extension experiments.
	Group string
	// Run regenerates the figure.
	Run func(Config) (*stats.Table, error)
}

// registry lists every figure in run order: the paper's Figures 2–7, then
// the extension experiments.
var registry = []Figure{
	{"2", "paper", Fig2}, {"3", "paper", Fig3}, {"4", "paper", Fig4},
	{"5", "paper", Fig5}, {"6", "paper", Fig6}, {"7", "paper", Fig7},
	{"baseline", "ext", BaselineComparison},
	{"deception", "ext", Deception},
	{"vectors", "ext", AttackVectors},
	{"security", "ext", SecurityPremium},
	{"hardening", "ext", HardeningComparison},
}

// Group returns the registry's figures of group g ("paper" or "ext") in run
// order.
func Group(g string) []Figure {
	var out []Figure
	for _, f := range registry {
		if f.Group == g {
			out = append(out, f)
		}
	}
	return out
}

// Lookup returns the registry's figure named name.
func Lookup(name string) (Figure, bool) {
	for _, f := range registry {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// Names lists the registry's figure names in run order.
func Names() []string {
	var out []string
	for _, f := range registry {
		out = append(out, f.Name)
	}
	return out
}

// All runs the paper's figures in registry order and returns them keyed by
// "fig2".."fig7".
func All(cfg Config) (map[string]*stats.Table, error) {
	out := map[string]*stats.Table{}
	for _, f := range Group("paper") {
		tb, err := f.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: fig%s: %w", f.Name, err)
		}
		out["fig"+f.Name] = tb
	}
	return out, nil
}
