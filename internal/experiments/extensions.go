// Extension experiments beyond the paper's six figures, covering the
// directions its discussion sections open:
//
//   - BaselineComparison quantifies the related-work contrast (Section
//     IV-B): economic defense (this paper) versus purely topological
//     asset ranking (electrical betweenness, [32]) on the same attacks.
//   - Deception measures the defense policy Figure 4 suggests: feeding the
//     adversary a degraded model makes her overpay for attacks she then
//     can't monetize.
//   - AttackVectors compares the paper's abrupt outage against the "more
//     subtle" perturbations of Section II-D3 (stealthy loss increases and
//     cost manipulations).
package experiments

import (
	"context"
	"fmt"

	"cpsguard/internal/adversary"
	"cpsguard/internal/baseline"
	"cpsguard/internal/core"
	"cpsguard/internal/impact"
	"cpsguard/internal/parallel"
	"cpsguard/internal/rng"
	"cpsguard/internal/stats"
)

// BaselineComparison measures defense effectiveness (the Fig. 5 metric)
// for four strategies across defender noise: the paper's independent and
// collaborative economic defenders, and noise-independent topological
// defenders ranking by edge betweenness and capacity-weighted betweenness.
// Topological strategies ignore both economics and ownership, so their
// curves are flat — the question is where they sit relative to the
// economic ones.
func BaselineComparison(cfg Config) (*stats.Table, error) {
	cfg = cfg.withMemo()
	t := &stats.Table{
		Title:  "Ext A: economic vs topological defense (4 actors)",
		XLabel: "sigma",
		YLabel: "impact reduction ($k/day)",
	}
	const n = 4
	indep := t.AddSeries("economic-independent")
	collab := t.AddSeries("economic-collaborative")
	topo := t.AddSeries("betweenness")
	wtopo := t.AddSeries("capacity-betweenness")

	scens := make([]*core.Scenario, cfg.trials())
	for i := range scens {
		scens[i] = cfg.scenarioFor(n, i)
	}
	for _, sigma := range cfg.sigmaGrid() {
		type row struct{ Ind, Col, Top, Wtop float64 }
		vals, err := runTrials(cfg, fmt.Sprintf("baseline σ=%v", sigma),
			func(ctx context.Context, trial int) (row, error) {
				s := scens[trial]
				seed := cfg.seed() ^ 0xE41 ^ uint64(trial)<<20 ^ uint64(sigma*1000)
				ind, err := defenseEffectiveness(ctx, s, cfg, sigma, n, false, seed)
				if err != nil {
					return row{}, err
				}
				col, err := defenseEffectiveness(ctx, s, cfg, sigma, n, true, seed)
				if err != nil {
					return row{}, err
				}
				top, err := topologicalEffectiveness(s, cfg, false, seed)
				if err != nil {
					return row{}, err
				}
				wtop, err := topologicalEffectiveness(s, cfg, true, seed)
				if err != nil {
					return row{}, err
				}
				return row{ind, col, top, wtop}, nil
			})
		if err != nil {
			return nil, err
		}
		var ia, ca, ta, wa stats.Accumulator
		for _, v := range vals {
			ia.Add(v.Ind)
			ca.Add(v.Col)
			ta.Add(v.Top)
			wa.Add(v.Wtop)
		}
		indep.Add(sigma, ia.Mean(), ia.StdErr())
		collab.Add(sigma, ca.Mean(), ca.StdErr())
		topo.Add(sigma, ta.Mean(), ta.StdErr())
		wtopo.Add(sigma, wa.Mean(), wa.StdErr())
	}
	return t, nil
}

// topologicalEffectiveness evaluates a betweenness-ranked defense against
// the same σ=0 single-asset SA attack the economic defenders face.
func topologicalEffectiveness(s *core.Scenario, cfg Config, capacityWeighted bool, seed uint64) (float64, error) {
	truth, err := s.Truth()
	if err != nil {
		return 0, err
	}
	plan, err := adversary.Solve(adversary.Config{
		Matrix: truth, Targets: s.Targets, Budget: 1,
	})
	if err != nil {
		return 0, err
	}
	var scores map[string]float64
	if capacityWeighted {
		scores = baseline.CapacityWeightedBetweenness(s.Graph)
	} else {
		scores = baseline.EdgeBetweenness(s.Graph)
	}
	costs := map[string]float64{}
	for t, c := range defenseCostsOf(s) {
		costs[t] = c
	}
	defended := baseline.Rank(scores).Defend(costs, cfg.systemDefenseBudget())
	undef := adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{})
	def := adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{Defended: defended})
	_ = seed
	return undef - def, nil
}

// defenseCostsOf exposes the scenario's defense costs as a plain map.
func defenseCostsOf(s *core.Scenario) map[string]float64 {
	out := map[string]float64{}
	ids := make([]string, 0, len(s.Targets))
	for _, t := range s.Targets {
		ids = append(ids, t.ID)
	}
	if s.DefenseCosts != nil {
		for t, c := range s.DefenseCosts {
			out[t] = c
		}
		return out
	}
	for _, id := range ids {
		out[id] = 1
	}
	return out
}

// Deception measures the Figure 4 defense policy: the defender cannot stop
// attacks, but feeds the adversary a model degraded by σ_dec. Reported
// series: the SA's anticipated spend-justifying profit, her realized
// profit, and the deception value (realized at σ=0 minus realized at σ).
func Deception(cfg Config) (*stats.Table, error) {
	cfg = cfg.withMemo()
	t := &stats.Table{
		Title:  "Ext B: deception defense (6 actors)",
		XLabel: "injected sigma",
		YLabel: "SA profit ($k/day)",
	}
	const n = 6
	antS := t.AddSeries("anticipated")
	obsS := t.AddSeries("realized")
	valS := t.AddSeries("deception value")
	scens := make([]*core.Scenario, cfg.trials())
	for i := range scens {
		scens[i] = cfg.scenarioFor(n, i)
	}
	// Realized profit at σ=0 per trial (the undeceived reference).
	ref := make([]float64, cfg.trials())
	for i, s := range scens {
		truth, err := s.Truth()
		if err != nil {
			return nil, err
		}
		plan, err := adversary.Solve(adversary.Config{
			Matrix: truth, Targets: s.Targets, Budget: cfg.attackBudget(),
		})
		if err != nil {
			return nil, err
		}
		ref[i] = adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{})
	}
	for _, sigma := range cfg.sigmaGrid() {
		type row struct{ Ant, Obs, Val float64 }
		vals, err := runTrials(cfg, fmt.Sprintf("deception σ=%v", sigma),
			func(ctx context.Context, trial int) (row, error) {
				s := scens[trial]
				truth, err := s.Truth()
				if err != nil {
					return row{}, err
				}
				view, err := s.View(sigma, cfg.NoiseMode,
					rng.Derive(cfg.seed()^0xE42, uint64(trial)<<16|uint64(sigma*1000)))
				if err != nil {
					return row{}, err
				}
				plan, err := adversary.Solve(adversary.Config{
					Matrix: view, Targets: s.Targets, Budget: cfg.attackBudget(),
					Ctx: ctx,
				})
				if err != nil {
					return row{}, err
				}
				obs := adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{})
				return row{plan.Anticipated, obs, ref[trial] - obs}, nil
			})
		if err != nil {
			return nil, err
		}
		var aa, oa, va stats.Accumulator
		for _, v := range vals {
			aa.Add(v.Ant)
			oa.Add(v.Obs)
			va.Add(v.Val)
		}
		antS.Add(sigma, aa.Mean(), aa.StdErr())
		obsS.Add(sigma, oa.Mean(), oa.StdErr())
		valS.Add(sigma, va.Mean(), va.StdErr())
	}
	return t, nil
}

// AttackVector is a named family of per-asset perturbations.
type AttackVector struct {
	Name string
	// Make maps an asset to the perturbations its attack applies; the
	// current edge is provided for relative perturbations.
	Make func(id string, current float64) []impact.Perturbation
}

// StandardVectors returns the paper-motivated attack families: the abrupt
// outage (Section III-A3) and two subtle manipulations (Section II-D3).
func StandardVectors() []AttackVector {
	return []AttackVector{
		{
			Name: "outage",
			Make: func(id string, _ float64) []impact.Perturbation {
				return []impact.Perturbation{impact.Outage(id)}
			},
		},
		{
			Name: "half-capacity",
			Make: func(id string, cap float64) []impact.Perturbation {
				return []impact.Perturbation{{EdgeID: id, Field: impact.Capacity, Value: cap / 2}}
			},
		},
		{
			Name: "loss+10pt",
			Make: func(id string, _ float64) []impact.Perturbation {
				return []impact.Perturbation{{EdgeID: id, Field: impact.Loss, Value: 0.10}}
			},
		},
	}
}

// AttackVectors compares the SA's optimal profit and the system damage
// across attack families on a 6-actor system. The x axis indexes the
// vector family (0 = outage, 1 = half-capacity, 2 = loss+10pt).
func AttackVectors(cfg Config) (*stats.Table, error) {
	cfg = cfg.withMemo()
	t := &stats.Table{
		Title:  "Ext C: attack-vector families (6 actors)",
		XLabel: "vector (0=outage 1=half-capacity 2=loss+10pt)",
		YLabel: "$k/day",
	}
	const n = 6
	profitS := t.AddSeries("SA profit")
	damageS := t.AddSeries("worst-case system damage")
	vectors := StandardVectors()
	for vi, vec := range vectors {
		type row struct{ Profit, Damage float64 }
		vals, err := runTrials(cfg, fmt.Sprintf("vectors %s", vec.Name),
			func(ctx context.Context, trial int) (row, error) {
				s := cfg.scenarioFor(n, trial)
				an := &impact.Analysis{
					Graph: s.Graph, Ownership: s.Ownership,
					Parallel: parallel.Options{Workers: 1}, Cache: cfg.Cache,
				}
				g := s.Graph
				m, err := an.ComputeMatrixOf(nil, func(id string) []impact.Perturbation {
					e := g.Edge(id)
					cur := 0.0
					switch {
					case e == nil:
					default:
						cur = e.Capacity
					}
					// Loss attacks must stay legal: never lower a loss.
					ps := vec.Make(id, cur)
					for i := range ps {
						if ps[i].Field == impact.Loss && e != nil && e.Loss > ps[i].Value {
							ps[i].Value = e.Loss
						}
					}
					return ps
				})
				if err != nil {
					return row{}, err
				}
				plan, err := adversary.Solve(adversary.Config{
					Matrix: m, Targets: s.Targets, Budget: cfg.attackBudget(),
					Ctx: ctx,
				})
				if err != nil {
					return row{}, err
				}
				worst := 0.0
				for _, w := range m.WelfareDelta {
					if d := -w; d > worst {
						worst = d
					}
				}
				return row{plan.Anticipated, worst}, nil
			})
		if err != nil {
			return nil, err
		}
		var pa, da stats.Accumulator
		for _, v := range vals {
			pa.Add(v.Profit)
			da.Add(v.Damage)
		}
		profitS.Add(float64(vi), pa.Mean(), pa.StdErr())
		damageS.Add(float64(vi), da.Mean(), da.StdErr())
	}
	return t, nil
}
