// Benchmarks of the extension experiments and the ablations called out in
// DESIGN.md §6, plus the ops of the telemetry and warmstart bench-report
// rows (bench_report_test.go). Run with:
//
//	go test -run '^$' -bench . -benchmem
//
// The paper's Figs. 2–7 are timed end to end by the figs-graph workload of
// benchmark/; the Ext* benches use a reduced grid (the full paper grids are
// run by cmd/cpsexp and recorded in EXPERIMENTS.md).
package cpsguard

import (
	"fmt"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/adversary"
	"cpsguard/internal/core"
	"cpsguard/internal/dcopf"
	"cpsguard/internal/defense"
	"cpsguard/internal/experiments"
	"cpsguard/internal/flow"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/impact"
	"cpsguard/internal/lp"
	"cpsguard/internal/milp"
	"cpsguard/internal/parallel"
	"cpsguard/internal/rng"
	"cpsguard/internal/westgrid"
)

// benchCfg is the reduced experiment grid used by the Ext* benches.
func benchCfg() experiments.Config {
	return experiments.Config{
		Trials:    2,
		Seed:      1,
		ActorGrid: []int{2, 6},
		SigmaGrid: []float64{0, 0.3},
		PaSamples: 6,
		NoiseMode: core.MatrixNoise,
	}
}

// BenchmarkWestgridDispatch measures the cost of one social-welfare
// dispatch of the stressed six-state model (Figure 1's substrate).
func BenchmarkWestgridDispatch(b *testing.B) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Dispatch(g); err != nil {
			b.Fatal(err)
		}
	}
}

// impactMatrixOp returns one full ground-truth impact-matrix build of the
// stressed westgrid (86 single-asset outages), the inner loop of every
// experiment. Each op builds a fresh analysis, as each trial does, so it
// solves the baseline too.
func impactMatrixOp(testing.TB) func() error {
	g := westgrid.Build(westgrid.Options{Stress: true})
	o := actors.RandomOwnership(g, 6, rng.New(1))
	return func() error {
		an := &impact.Analysis{Graph: g, Ownership: o}
		_, err := an.ComputeMatrix(nil)
		return err
	}
}

func benchExt(b *testing.B, run func(experiments.Config) (*Table, error)) {
	b.Helper()
	cfg := benchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtBaselineComparison regenerates the economic-vs-topological
// defense comparison (extension A).
func BenchmarkExtBaselineComparison(b *testing.B) { benchExt(b, experiments.BaselineComparison) }

// BenchmarkExtDeception regenerates the deception-defense curve
// (extension B).
func BenchmarkExtDeception(b *testing.B) { benchExt(b, experiments.Deception) }

// BenchmarkExtAttackVectors regenerates the attack-vector family comparison
// (extension C).
func BenchmarkExtAttackVectors(b *testing.B) { benchExt(b, experiments.AttackVectors) }

// BenchmarkExtSecurityPremium regenerates the N-1 security-premium trade-off
// (extension D).
func BenchmarkExtSecurityPremium(b *testing.B) { benchExt(b, experiments.SecurityPremium) }

// BenchmarkExtHardening regenerates the binary-vs-graduated defense
// comparison (extension E).
func BenchmarkExtHardening(b *testing.B) { benchExt(b, experiments.HardeningComparison) }

// --- Ablation: strategic adversary solvers (DESIGN.md §6).

func adversaryBenchConfig(tb testing.TB) adversary.Config {
	tb.Helper()
	g := westgrid.Build(westgrid.Options{Stress: true})
	s := core.NewScenario(g, 6, 3)
	m, err := s.Truth()
	if err != nil {
		tb.Fatal(err)
	}
	return adversary.Config{
		Matrix:  m,
		Targets: adversary.UniformTargets(g.AssetIDs(), 1, 1),
		Budget:  6,
	}
}

// BenchmarkAdversaryExact measures the exact B&B target search on the full
// 86-asset, 6-actor instance (the paper's Experiment 2 configuration).
func BenchmarkAdversaryExact(b *testing.B) {
	cfg := adversaryBenchConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adversary.Solve(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: profit-division models.

func profitBenchSetup(b *testing.B) (*Graph, *flow.Result, Ownership) {
	b.Helper()
	g := westgrid.Build(westgrid.Options{Stress: true})
	r, err := flow.Dispatch(g)
	if err != nil {
		b.Fatal(err)
	}
	return g, r, actors.RandomOwnership(g, 6, rng.New(2))
}

// BenchmarkProfitDivisionLMP measures the dual-based settlement (no extra
// LP solves).
func BenchmarkProfitDivisionLMP(b *testing.B) {
	g, r, o := profitBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := actors.Divide(actors.LMPDivision{}, g, r, o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfitDivisionIterative measures the paper's literal
// capacity-probing relaxation (one LP re-solve per flow-carrying edge).
func BenchmarkProfitDivisionIterative(b *testing.B) {
	g, r, o := profitBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := actors.Divide(actors.IterativeDivision{}, g, r, o); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: defense planners.

func defenseBenchSetup(b *testing.B) (*impact.Matrix, Ownership, map[string]float64) {
	b.Helper()
	g := westgrid.Build(westgrid.Options{Stress: true})
	s := core.NewScenario(g, 6, 5)
	m, err := s.Truth()
	if err != nil {
		b.Fatal(err)
	}
	pa := map[string]float64{}
	for _, t := range m.Targets {
		pa[t] = 0.25
	}
	return m, s.Ownership, pa
}

// BenchmarkDefenseIndependent measures all-actor independent planning
// (Eqs. 12–14) on the full model.
func BenchmarkDefenseIndependent(b *testing.B) {
	m, o, pa := defenseBenchSetup(b)
	costs := defense.UniformCosts(m.Targets, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := defense.PlanAllIndependent(m, o, pa, costs, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDefenseCollaborative measures cost-shared planning (Eqs. 15–18)
// on the full model.
func BenchmarkDefenseCollaborative(b *testing.B) {
	m, o, pa := defenseBenchSetup(b)
	costs := defense.UniformCosts(m.Targets, 1)
	budgets := map[string]float64{}
	for _, a := range m.Actors {
		budgets[a] = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := defense.PlanCollaborative(defense.CollaborativeConfig{
			Matrix: m, Ownership: o,
			AttackProb: defense.SharedAttackProb(m, pa),
			Costs:      costs, Budget: budgets,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel scaling of the Monte-Carlo trial loop.

func benchTrialWork() func(int) (float64, error) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	return func(i int) (float64, error) {
		o := actors.RandomOwnership(g, 6, rng.Derive(9, uint64(i)))
		an := &impact.Analysis{Graph: g, Ownership: o,
			Parallel: parallel.Options{Workers: 1}}
		m, err := an.ComputeMatrix(westgrid.LongHaulAssets(g))
		if err != nil {
			return 0, err
		}
		gain, _ := m.GainLoss()
		return gain, nil
	}
}

// BenchmarkTrialsSerial runs 8 ownership trials on one worker.
func BenchmarkTrialsSerial(b *testing.B) {
	work := benchTrialWork()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.Map(8, parallel.Options{Workers: 1}, work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrialsParallel runs the same 8 trials across all cores.
func BenchmarkTrialsParallel(b *testing.B) {
	work := benchTrialWork()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parallel.Map(8, parallel.Options{}, work); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Scaling with system size (Section II-E4's computational-difficulty
// discussion), on synthetic systems from internal/gridgen.

func benchScaling(b *testing.B, regions int) {
	b.Helper()
	g, err := gridgen.Build(gridgen.Config{Regions: regions, Seed: 1, Stress: true})
	if err != nil {
		b.Fatal(err)
	}
	o := actors.RandomOwnership(g, regions, rng.New(1))
	an := &impact.Analysis{Graph: g, Ownership: o}
	m, err := an.ComputeMatrix(nil)
	if err != nil {
		b.Fatal(err)
	}
	cfg := adversary.Config{
		Matrix:  m,
		Targets: adversary.UniformTargets(g.AssetIDs(), 1, 1),
		Budget:  6,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adversary.Solve(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalingAdversary6 solves the SA on a 6-region synthetic system.
func BenchmarkScalingAdversary6(b *testing.B) { benchScaling(b, 6) }

// BenchmarkScalingAdversary12 solves the SA on a 12-region system.
func BenchmarkScalingAdversary12(b *testing.B) { benchScaling(b, 12) }

// BenchmarkScalingAdversary24 solves the SA on a 24-region system.
func BenchmarkScalingAdversary24(b *testing.B) { benchScaling(b, 24) }

// BenchmarkScalingDispatch48 dispatches a 48-region synthetic system
// (~600 edges) — the LP substrate's scaling point.
func BenchmarkScalingDispatch48(b *testing.B) {
	g, err := gridgen.Build(gridgen.Config{Regions: 48, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.Dispatch(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ops of the telemetry suite (DESIGN.md §10): the units the telemetry
// instruments meter, so BENCH_telemetry.json pairs ns/op with pivot and
// node counts.

// benchLPProblem builds a representative dense LP: a transport-style
// minimum-cost assignment with capacities, ~60 variables and ~28 rows.
func benchLPProblem() *lp.Problem {
	const src, dst = 6, 10
	p := lp.NewProblem()
	vars := make([][]int, src)
	for i := 0; i < src; i++ {
		vars[i] = make([]int, dst)
		for j := 0; j < dst; j++ {
			cost := float64((i*7+j*13)%11 + 1)
			vars[i][j] = p.AddVariable("x", cost, 40)
		}
	}
	for i := 0; i < src; i++ {
		coefs := make([]lp.Coef, dst)
		for j := 0; j < dst; j++ {
			coefs[j] = lp.Coef{Var: vars[i][j], Value: 1}
		}
		p.AddConstraint(lp.Constraint{Coefs: coefs, Sense: lp.LE, RHS: 100})
	}
	for j := 0; j < dst; j++ {
		coefs := make([]lp.Coef, src)
		for i := 0; i < src; i++ {
			coefs[i] = lp.Coef{Var: vars[i][j], Value: 1}
		}
		p.AddConstraint(lp.Constraint{Coefs: coefs, Sense: lp.GE, RHS: 30})
	}
	return p
}

// lpSolveOp returns one cold solve of benchLPProblem.
func lpSolveOp(testing.TB) func() error {
	p := benchLPProblem()
	return func() error {
		sol, err := p.Solve()
		if err == nil && sol.Status != lp.Optimal {
			err = fmt.Errorf("status %v", sol.Status)
		}
		return err
	}
}

// milpSolveOp returns one branch and bound of a 14-binary knapsack-style
// problem over the same LP engine.
func milpSolveOp(testing.TB) func() error {
	prob := milp.Problem{LP: lp.NewProblem()}
	for j := 0; j < 14; j++ {
		v := prob.LP.AddVariable("x", -float64((j*17)%9+1), 1)
		prob.Binary = append(prob.Binary, v)
	}
	coefs := make([]lp.Coef, 14)
	for j := range coefs {
		coefs[j] = lp.Coef{Var: j, Value: float64((j*5)%7 + 1)}
	}
	prob.LP.AddConstraint(lp.Constraint{Coefs: coefs, Sense: lp.LE, RHS: 18})
	return func() error {
		sol, err := milp.Solve(prob, milp.Options{})
		if err == nil && sol.Status != lp.Optimal {
			err = fmt.Errorf("status %v", sol.Status)
		}
		return err
	}
}

// adversarySolveOp returns one exact SA search on the full instance.
func adversarySolveOp(tb testing.TB) func() error {
	cfg := adversaryBenchConfig(tb)
	return func() error {
		_, err := adversary.Solve(cfg)
		return err
	}
}

// experimentsTrialOp returns one full experiment trial — dispatch, impact,
// Pa estimation, defense, and settlement — the unit the checkpoint journal
// records. The op's i-th call plays the round of seed i.
func experimentsTrialOp(testing.TB) func() error {
	g := westgrid.Build(westgrid.Options{Stress: true})
	var seed uint64
	return func() error {
		s := core.NewScenario(g, 4, seed)
		_, err := core.PlayRound(s, core.GameConfig{
			AttackBudget:          1,
			DefenderSigma:         0.2,
			SpeculatedSigma:       0.2,
			DefenseBudgetPerActor: 3,
			PaSamples:             4,
			NoiseMode:             core.MatrixNoise,
			Seed:                  seed,
		})
		seed++
		return err
	}
}

// --- Ablation: transport dispatch vs DC-OPF physics (DESIGN.md §6).

// BenchmarkDCOPFWestgrid solves the Kirchhoff-constrained dispatch of the
// stressed six-state model (contrast substrate for the paper's
// freely-routed transport model).
func BenchmarkDCOPFWestgrid(b *testing.B) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dcopf.Solve(g, dcopf.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
