// Package core wires the paper's three components together end to end:
// the interdependent impact model (Section II-D), the strategic adversary
// (Section II-E), and the defenders (Section II-F). A Scenario fixes the
// physical system, the actor ownership, and the attack/defense economics; a
// GameConfig fixes the two sides' knowledge levels and budgets; PlayRound
// runs one full round:
//
//  1. Ground truth: compute the true impact matrix IM*.
//  2. Adversary: build the SA's noisy view (σ_attacker), compute her impact
//     matrix, and solve her target/actor selection (Eq. 8–11).
//  3. Defenders: build the defenders' noisy view (σ_defender), estimate
//     attack probabilities by simulating the SA over speculated-knowledge
//     samples (σ_speculated, Section II-F2), and invest independently
//     (Eq. 12–14) or collaboratively (Eq. 15–18).
//  4. Settlement: evaluate the SA's plan against ground truth, with and
//     without the chosen defense; the difference is the paper's defense
//     effectiveness metric (Section III-D).
package core

import (
	"context"
	"errors"
	"fmt"

	"cpsguard/internal/actors"
	"cpsguard/internal/adversary"
	"cpsguard/internal/defense"
	"cpsguard/internal/graph"
	"cpsguard/internal/impact"
	"cpsguard/internal/noise"
	"cpsguard/internal/parallel"
	"cpsguard/internal/rng"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/telemetry"
)

// NoiseMode selects how an agent's noisy view is produced.
type NoiseMode int8

const (
	// GraphNoise perturbs the physical model's parameters and re-derives
	// the impact matrix by re-dispatching every attack — the paper's
	// faithful formulation (σ on c, a, l, s, d). Costs one LP per target.
	GraphNoise NoiseMode = iota
	// MatrixNoise perturbs the ground-truth impact matrix entries
	// directly — a fast approximation useful for large Monte-Carlo
	// sweeps; equivalent first-order behaviour (decision quality decays
	// with σ) at a fraction of the cost.
	MatrixNoise
)

// String implements fmt.Stringer.
func (m NoiseMode) String() string {
	switch m {
	case GraphNoise:
		return "graph"
	case MatrixNoise:
		return "matrix"
	default:
		return fmt.Sprintf("NoiseMode(%d)", int8(m))
	}
}

// Scenario fixes the system under study.
type Scenario struct {
	// Graph is the ground-truth physical model.
	Graph *graph.Graph
	// Ownership assigns assets to actors.
	Ownership actors.Ownership
	// ProfitModel divides welfare (default actors.LMPDivision).
	ProfitModel actors.ProfitModel
	// Targets lists the attackable assets with Catk and Ps. Defaults to
	// every edge at cost 1, Ps 1 (the paper's uniform-cost setting).
	Targets []adversary.Target
	// DefenseCosts is Cd per asset (default: 1 per attackable target).
	DefenseCosts defense.Costs
	// Parallel configures intra-round fan-out.
	Parallel parallel.Options
	// Cache, when non-nil, memoizes dispatches across impact computations,
	// keyed by graph fingerprint, so scenarios of one grid under different
	// ownerships share its entries (see impact/cache.go). Purely an
	// accelerator: results are unchanged.
	Cache *solvecache.Cache

	truth *impact.Matrix // cached ground-truth matrix
}

// NewScenario builds a scenario over g with n uniformly-random actors
// (seeded) and the paper's uniform economics.
func NewScenario(g *graph.Graph, numActors int, seed uint64) *Scenario {
	o := actors.RandomOwnership(g, numActors, rng.Derive(seed, 0))
	return &Scenario{
		Graph:     g,
		Ownership: o,
		Targets:   adversary.UniformTargets(g.AssetIDs(), 1, 1),
	}
}

func (s *Scenario) targets() []adversary.Target {
	if s.Targets != nil {
		return s.Targets
	}
	return adversary.UniformTargets(s.Graph.AssetIDs(), 1, 1)
}

func (s *Scenario) defenseCosts() defense.Costs {
	if s.DefenseCosts != nil {
		return s.DefenseCosts
	}
	return defense.UniformCosts(s.targetIDs(), 1)
}

func (s *Scenario) targetIDs() []string {
	ids := make([]string, 0, len(s.targets()))
	for _, t := range s.targets() {
		ids = append(ids, t.ID)
	}
	return ids
}

// matrix computes the impact matrix of the scenario's targets on g, the
// ground truth or a noisy copy of it.
func (s *Scenario) matrix(g *graph.Graph) (*impact.Matrix, error) {
	an := &impact.Analysis{Graph: g, Ownership: s.Ownership, Model: s.ProfitModel, Parallel: s.Parallel, Cache: s.Cache}
	return an.ComputeMatrix(s.targetIDs())
}

// Truth computes (and caches) the ground-truth impact matrix for the
// scenario's target set.
func (s *Scenario) Truth() (*impact.Matrix, error) {
	if s.truth != nil {
		return s.truth, nil
	}
	m, err := s.matrix(s.Graph)
	if err != nil {
		return nil, err
	}
	s.truth = m
	return m, nil
}

// View produces an agent's noisy impact matrix at knowledge noise sigma.
func (s *Scenario) View(sigma float64, mode NoiseMode, rs *rng.Stream) (*impact.Matrix, error) {
	truth, err := s.Truth()
	if err != nil {
		return nil, err
	}
	if sigma == 0 {
		return truth, nil
	}
	switch mode {
	case MatrixNoise:
		return truth.Perturbed(sigma, rs), nil
	case GraphNoise:
		return s.matrix(noise.Perturb(s.Graph, noise.Model{Sigma: sigma}, rs))
	default:
		return nil, fmt.Errorf("core: unknown noise mode %v", mode)
	}
}

// GameConfig fixes one round's knowledge and budget parameters.
type GameConfig struct {
	// AttackBudget is MA (with unit target costs: max #targets).
	AttackBudget float64
	// AttackerSigma is the SA's knowledge noise.
	AttackerSigma float64
	// DefenderSigma is the defenders' knowledge noise.
	DefenderSigma float64
	// SpeculatedSigma is the defenders' estimate of the SA's knowledge
	// noise, used when sampling the SA to estimate Pa (Section II-F2).
	SpeculatedSigma float64
	// DefenseBudgetPerActor is MD(a), identical across actors (the
	// paper's fixed system budget divided evenly, Section III-D).
	DefenseBudgetPerActor float64
	// Collaborative selects cost-shared defense (Eq. 15–18).
	Collaborative bool
	// PaSamples is the number of speculated-SA samples for estimating
	// attack probabilities (default 16).
	PaSamples int
	// NoiseMode selects the view mechanism (default GraphNoise).
	NoiseMode NoiseMode
	// Seed drives all randomness in the round.
	Seed uint64
	// Ctx, when non-nil, cancels the round: it is threaded into the
	// adversary search and the attack-probability sampling pool so
	// in-flight solves stop promptly.
	Ctx context.Context
}

func (c GameConfig) paSamples() int {
	if c.PaSamples > 0 {
		return c.PaSamples
	}
	return 16
}

// GameResult reports one settled round.
type GameResult struct {
	// Plan is the SA's chosen attack.
	Plan *adversary.Plan
	// Anticipated is the SA's expected profit under her own view.
	Anticipated float64
	// RealizedUndefended is the SA's ground-truth profit with no defense.
	RealizedUndefended float64
	// RealizedDefended is the SA's ground-truth profit against the
	// chosen defense.
	RealizedDefended float64
	// Defended is the union of protected assets.
	Defended map[string]bool
	// DefenseSpent is the total defensive expenditure.
	DefenseSpent float64
	// Effectiveness is the paper's Fig. 5 metric:
	// RealizedUndefended − RealizedDefended.
	Effectiveness float64
}

// ErrNilScenario guards PlayRound.
var ErrNilScenario = errors.New("core: nil scenario or graph")

// PlayRound runs one full adversary-vs-defenders round. The adversary
// plan comes from the exact search (proven, or carrying its gap when the
// node cap stops it); cfg.Ctx cancellation aborts the round with the
// context error.
func PlayRound(s *Scenario, cfg GameConfig) (*GameResult, error) {
	if s == nil || s.Graph == nil {
		return nil, ErrNilScenario
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	sp, roundCtx := telemetry.Default().StartSpanCtx(cfg.Ctx, "core.round", cfg.NoiseMode.String())
	if sp != nil {
		cfg.Ctx = roundCtx // adversary + defender solves nest under the round
		defer sp.End()
	}
	truth, err := s.Truth()
	if err != nil {
		return nil, err
	}
	targets := s.targets()

	// --- Adversary side.
	atkView, err := s.View(cfg.AttackerSigma, cfg.NoiseMode, rng.Derive(cfg.Seed, 1))
	if err != nil {
		return nil, fmt.Errorf("core: adversary view: %w", err)
	}
	plan, err := adversary.Solve(adversary.Config{
		Matrix: atkView, Targets: targets, Budget: cfg.AttackBudget,
		Ctx: cfg.Ctx,
	})
	if err != nil {
		return nil, fmt.Errorf("core: adversary: %w", err)
	}

	// --- Defender side.
	defView, err := s.View(cfg.DefenderSigma, cfg.NoiseMode, rng.Derive(cfg.Seed, 2))
	if err != nil {
		return nil, fmt.Errorf("core: defender view: %w", err)
	}
	par := s.Parallel
	if cfg.Ctx != nil {
		par.Context = cfg.Ctx
	}
	pa, err := defense.EstimateAttackProb(defView, targets, cfg.AttackBudget,
		cfg.SpeculatedSigma, cfg.paSamples(), cfg.Seed^0xD1FA, par)
	if err != nil {
		return nil, fmt.Errorf("core: attack probability: %w", err)
	}

	defended, spent, err := defense.Invest(defView, s.Ownership, pa, s.defenseCosts(),
		cfg.DefenseBudgetPerActor, cfg.Collaborative)
	if err != nil {
		return nil, fmt.Errorf("core: defense: %w", err)
	}

	// --- Settlement against ground truth.
	undef := adversary.Evaluate(plan, truth, targets, adversary.EvaluateOptions{})
	def := adversary.Evaluate(plan, truth, targets, adversary.EvaluateOptions{Defended: defended})

	return &GameResult{
		Plan:               plan,
		Anticipated:        plan.Anticipated,
		RealizedUndefended: undef,
		RealizedDefended:   def,
		Defended:           defended,
		DefenseSpent:       spent,
		Effectiveness:      undef - def,
	}, nil
}
