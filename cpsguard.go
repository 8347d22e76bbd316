// Package cpsguard is the public API of a Go reproduction of Wood, Bagchi &
// Hussain, "Optimizing Defensive Investments in Energy-Based Cyber-Physical
// Systems" (IPPS 2015): a toolkit for modeling interdependent energy
// systems as flow graphs, dispatching them to a social-welfare optimum,
// dividing profit among independent actors, measuring the financial impact
// of cyber-attacks, and optimizing both a strategic adversary's target
// selection and the defenders' (possibly collaborative) investments.
//
// # Quick start
//
//	g := cpsguard.NewGraph("demo")
//	g.MustAddVertex(cpsguard.Vertex{ID: "gen", Supply: 100, SupplyCost: 2})
//	g.MustAddVertex(cpsguard.Vertex{ID: "load", Demand: 80, Price: 10})
//	g.MustAddEdge(cpsguard.Edge{ID: "line", From: "gen", To: "load", Capacity: 90})
//	res, err := cpsguard.Dispatch(g)            // social-welfare optimum
//	scn := cpsguard.NewScenario(g, 4, seed)     // 4 random actors
//	im, err := scn.Truth()                      // impact matrix IM[a,t]
//	round, err := cpsguard.PlayRound(scn, cfg)  // adversary vs defenders
//
// The heavy lifting lives in internal packages; this package re-exports the
// stable surface: graph modeling (internal/graph), dispatch (internal/flow),
// ownership and profit division (internal/actors), attack impacts
// (internal/impact), the strategic adversary (internal/adversary), defense
// optimization (internal/defense), the end-to-end game (internal/core), the
// paper's six-state western-US model (internal/westgrid), and the
// experiment harness regenerating the paper's Figures 2–7
// (internal/experiments).
package cpsguard

import (
	"cpsguard/internal/actors"
	"cpsguard/internal/adversary"
	"cpsguard/internal/baseline"
	"cpsguard/internal/core"
	"cpsguard/internal/dcopf"
	"cpsguard/internal/defense"
	"cpsguard/internal/experiments"
	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/impact"
	"cpsguard/internal/multiperiod"
	"cpsguard/internal/repeated"
	"cpsguard/internal/rng"
	"cpsguard/internal/secure"
	"cpsguard/internal/stats"
	"cpsguard/internal/westgrid"
)

// Graph modeling (see internal/graph).
type (
	// Graph is a directed energy flow network.
	Graph = graph.Graph
	// Vertex is one hub, generator or load.
	Vertex = graph.Vertex
	// Edge is one physical asset (line, pipeline, conversion, …).
	Edge = graph.Edge
	// Kind classifies an edge's physical asset type.
	Kind = graph.Kind
)

// Edge kinds.
const (
	KindTransmission = graph.KindTransmission
	KindPipeline     = graph.KindPipeline
	KindGeneration   = graph.KindGeneration
	KindDistribution = graph.KindDistribution
	KindConversion   = graph.KindConversion
	KindImport       = graph.KindImport
)

// NewGraph returns an empty named graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// Dispatch and settlement (see internal/flow, internal/actors).
type (
	// DispatchResult is a solved social-welfare dispatch.
	DispatchResult = flow.Result
	// Ownership maps asset IDs to actor IDs.
	Ownership = actors.Ownership
	// Profits is a per-actor profit statement.
	Profits = actors.Profits
	// ProfitModel divides system welfare among actors.
	ProfitModel = actors.ProfitModel
	// ProfitIndex lays out a graph's actors and edges for ProfitModel.Share.
	ProfitIndex = actors.Index
	// LMPDivision settles at locational marginal prices (default model).
	LMPDivision = actors.LMPDivision
	// IterativeDivision is the paper's literal marginal-cost relaxation.
	IterativeDivision = actors.IterativeDivision
)

// Dispatch solves the social-welfare optimum of g (Eqs. 1–7).
func Dispatch(g *Graph) (*DispatchResult, error) { return flow.Dispatch(g) }

// DivideProfits returns m's per-actor profits for g dispatched as r under o.
func DivideProfits(m ProfitModel, g *Graph, r *DispatchResult, o Ownership) (Profits, error) {
	return actors.Divide(m, g, r, o)
}

// RandomOwnership assigns each asset of g to one of n actors uniformly at
// random, deterministically from seed.
func RandomOwnership(g *Graph, n int, seed uint64) Ownership {
	return actors.RandomOwnership(g, n, rng.New(seed))
}

// Impact analysis (see internal/impact).
type (
	// ImpactAnalysis measures attack impacts on a system.
	ImpactAnalysis = impact.Analysis
	// ImpactMatrix is IM[a,t], per-actor profit deltas per attacked asset.
	ImpactMatrix = impact.Matrix
	// Perturbation is a parameter override representing an attack.
	Perturbation = impact.Perturbation
)

// Outage is the paper's experimental attack: capacity → 0.
func Outage(edgeID string) Perturbation { return impact.Outage(edgeID) }

// Adversary and defense (see internal/adversary, internal/defense).
type (
	// Target is an attackable asset with cost and success probability.
	Target = adversary.Target
	// AttackPlan is the strategic adversary's chosen targets and actors.
	AttackPlan = adversary.Plan
	// AdversaryConfig states one SA optimization instance.
	AdversaryConfig = adversary.Config
	// Investment is one actor's chosen defense.
	Investment = defense.Investment
	// DefenseCosts maps targets to Cd(t).
	DefenseCosts = defense.Costs
)

// UniformTargets builds a uniform-economics target list (the paper's
// experimental configuration).
func UniformTargets(ids []string, cost, successProb float64) []Target {
	return adversary.UniformTargets(ids, cost, successProb)
}

// SolveAdversary finds the optimal attack (Eq. 8–11), exactly.
func SolveAdversary(cfg AdversaryConfig) (*AttackPlan, error) { return adversary.Solve(cfg) }

// End-to-end game (see internal/core).
type (
	// Scenario fixes a system, its ownership and its economics.
	Scenario = core.Scenario
	// GameConfig fixes one round's knowledge and budget parameters.
	GameConfig = core.GameConfig
	// GameResult reports a settled adversary-vs-defenders round.
	GameResult = core.GameResult
	// NoiseMode selects how noisy agent views are derived.
	NoiseMode = core.NoiseMode
)

// Noise modes.
const (
	// GraphNoise perturbs physical parameters and re-dispatches (paper-
	// faithful).
	GraphNoise = core.GraphNoise
	// MatrixNoise perturbs impact-matrix entries directly (fast).
	MatrixNoise = core.MatrixNoise
)

// NewScenario builds a scenario over g with n random actors.
func NewScenario(g *Graph, n int, seed uint64) *Scenario { return core.NewScenario(g, n, seed) }

// PlayRound runs one full adversary-vs-defenders round.
func PlayRound(s *Scenario, cfg GameConfig) (*GameResult, error) { return core.PlayRound(s, cfg) }

// The paper's evaluation model and experiments (see internal/westgrid,
// internal/experiments).
type (
	// WestgridOptions configures the six-state model build.
	WestgridOptions = westgrid.Options
	// ExperimentConfig parameterizes the figure regenerators.
	ExperimentConfig = experiments.Config
	// Table is a figure-shaped experiment result.
	Table = stats.Table
)

// Westgrid builds the paper's six-state interconnected gas-electric model.
func Westgrid(opts WestgridOptions) *Graph { return westgrid.Build(opts) }

// Experiment runners, one per figure in the paper's evaluation, plus the
// extension experiments documented in DESIGN.md §5.
var (
	Fig2 = experiments.Fig2
	Fig3 = experiments.Fig3
	Fig4 = experiments.Fig4
	Fig5 = experiments.Fig5
	Fig6 = experiments.Fig6
	Fig7 = experiments.Fig7
	// AllExperiments runs every figure.
	AllExperiments = experiments.All
	// ExtBaselineComparison compares economic and topological defense.
	ExtBaselineComparison = experiments.BaselineComparison
	// ExtDeception quantifies the Figure-4 deception defense.
	ExtDeception = experiments.Deception
	// ExtAttackVectors compares outage vs subtle attack families.
	ExtAttackVectors = experiments.AttackVectors
	// ExtSecurityPremium measures the N-1 security/welfare trade-off.
	ExtSecurityPremium = experiments.SecurityPremium
	// ExtHardening compares binary defense with graduated hardening.
	ExtHardening = experiments.HardeningComparison
)

// Extensions beyond the one-shot model (see the respective packages).
type (
	// MultiPeriodConfig states a time-domain dispatch (Section II-D5).
	MultiPeriodConfig = multiperiod.Config
	// Period is one demand/supply snapshot in a horizon.
	Period = multiperiod.Period
	// TimedAttack is a perturbation active over a period range.
	TimedAttack = multiperiod.TimedAttack
	// SecureConfig states a preventive N-1 dispatch (SCUC contrast).
	SecureConfig = secure.Config
	// RepeatedConfig states a multi-round learning game.
	RepeatedConfig = repeated.Config
	// HardeningConfig states a graduated-defense allocation.
	HardeningConfig = defense.HardeningConfig
	// GridgenConfig parameterizes the synthetic system generator.
	GridgenConfig = gridgen.Config
)

// MultiPeriodDispatch solves a coupled multi-period welfare optimum.
func MultiPeriodDispatch(cfg MultiPeriodConfig) (*multiperiod.Result, error) {
	return multiperiod.Dispatch(cfg)
}

// SecureDispatch solves a preventive N-1 security-constrained dispatch.
func SecureDispatch(cfg SecureConfig) (*secure.Result, error) { return secure.Dispatch(cfg) }

// PlayRepeated runs the multi-round adversary-vs-learning-defenders game.
func PlayRepeated(s *Scenario, cfg RepeatedConfig) (*repeated.Result, error) {
	return repeated.Play(s, cfg)
}

// PlanHardening allocates a graduated hardening budget (Section II-E4).
func PlanHardening(cfg HardeningConfig) (*defense.Hardening, error) {
	return defense.PlanHardening(cfg)
}

// GenerateGrid synthesizes an interconnected gas-electric system of
// arbitrary size with the structural grammar of the paper's model.
func GenerateGrid(cfg GridgenConfig) (*Graph, error) { return gridgen.Build(cfg) }

// EdgeBetweenness exposes the topological baseline's criticality metric.
func EdgeBetweenness(g *Graph) map[string]float64 { return baseline.EdgeBetweenness(g) }

// DCOPF solves the classical DC optimal power flow on g — the physics-
// constrained contrast to Dispatch's freely-routed transport model (see
// internal/dcopf).
func DCOPF(g *Graph, opts dcopf.Options) (*dcopf.Result, error) { return dcopf.Solve(g, opts) }

// DCOPFOptions configures DCOPF.
type DCOPFOptions = dcopf.Options
