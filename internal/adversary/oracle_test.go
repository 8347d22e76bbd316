package adversary

import (
	"fmt"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/impact"
	"cpsguard/internal/lp"
	"cpsguard/internal/milp"
	"cpsguard/internal/rng"
	"cpsguard/internal/westgrid"
)

// solveMILP solves the standard linearization (y_{ij} = T_i·A_j with
// y ≥ T_i + A_j − 1, y ≤ T_i, y ≤ A_j) on the generic MILP engine. It is
// exponentially slower than Solve and exists as the cross-check oracle the
// exact search is tested against.
func solveMILP(cfg Config) (*Plan, error) {
	in, err := newInstance(cfg)
	if err != nil {
		return nil, err
	}
	nT, nA := len(in.ids), len(in.actors)
	p := lp.NewProblem()
	tVar := make([]int, nT)
	aVar := make([]int, nA)
	for i := range tVar {
		tVar[i] = p.AddVariable("T", in.cost[i], 1) // minimize: +cost when attacked
	}
	for j := range aVar {
		aVar[j] = p.AddVariable("A", 0, 1)
	}
	binary := append(append([]int(nil), tVar...), aVar...)
	for i := 0; i < nT; i++ {
		for j := 0; j < nA; j++ {
			w := in.im[j][i]
			if w == 0 {
				continue
			}
			y := p.AddVariable("y", -w, 1)
			// y ≤ T_i, y ≤ A_j, y ≥ T_i + A_j − 1. For positive w the
			// objective (−w·y, minimized) pushes y up, so the ≤ rows
			// bind; for negative w it pushes y down, so the ≥ row
			// binds. All three keep y = T·A at binary points.
			p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: y, Value: 1}, {Var: tVar[i], Value: -1}}, Sense: lp.LE, RHS: 0})
			p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: y, Value: 1}, {Var: aVar[j], Value: -1}}, Sense: lp.LE, RHS: 0})
			p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: y, Value: 1}, {Var: tVar[i], Value: -1}, {Var: aVar[j], Value: -1}}, Sense: lp.GE, RHS: -1})
		}
	}
	budgetCoefs := make([]lp.Coef, nT)
	for i := range tVar {
		budgetCoefs[i] = lp.Coef{Var: tVar[i], Value: in.cost[i]}
	}
	p.AddConstraint(lp.Constraint{Coefs: budgetCoefs, Sense: lp.LE, RHS: in.budget})

	sol, err := milp.Solve(milp.Problem{LP: p, Binary: binary},
		milp.Options{Ctx: cfg.Ctx})
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("adversary: MILP status %v", sol.Status)
	}
	var set []int
	for i, v := range tVar {
		if sol.X[v] > 0.5 {
			set = append(set, i)
		}
	}
	return in.plan(set, sol.Nodes, sol.Proven), nil
}

// BenchmarkAdversaryMILP measures the MILP oracle on the first 12 assets of
// the stressed westgrid with 6 actors (ownership seed 3) and room for 3
// attacks, a reduced cut of the paper's Experiment 2 instance: the oracle is
// the cross-check, not the production path.
func BenchmarkAdversaryMILP(b *testing.B) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	an := &impact.Analysis{Graph: g, Ownership: actors.RandomOwnership(g, 6, rng.Derive(3, 0))}
	m, err := an.ComputeMatrix(g.AssetIDs())
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Matrix: m, Targets: UniformTargets(g.AssetIDs()[:12], 1, 1), Budget: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveMILP(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
