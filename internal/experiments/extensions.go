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
	"sync"

	"cpsguard/internal/adversary"
	"cpsguard/internal/baseline"
	"cpsguard/internal/core"
	"cpsguard/internal/impact"
	"cpsguard/internal/parallel"
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
	series := []*stats.Series{
		t.AddSeries("economic-independent"), t.AddSeries("economic-collaborative"),
		t.AddSeries("betweenness"), t.AddSeries("capacity-betweenness"),
	}
	scens := cfg.scenarios(n)
	for _, sigma := range cfg.sigmaGrid() {
		err := addPoint(cfg, fmt.Sprintf("baseline σ=%v", sigma), sigma, series,
			func(ctx context.Context, trial int) ([]float64, error) {
				s := scens[trial]
				ind, col, err := effectivenessPair(ctx, s, cfg, sigma, n,
					cfg.seed()^0xE41^uint64(trial)<<20^uint64(sigma*1000))
				if err != nil {
					return nil, err
				}
				top, err := topologicalEffectiveness(s, cfg, false)
				if err != nil {
					return nil, err
				}
				wtop, err := topologicalEffectiveness(s, cfg, true)
				if err != nil {
					return nil, err
				}
				return []float64{ind, col, top, wtop}, nil
			})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// topologicalEffectiveness evaluates a betweenness-ranked defense against
// the same σ=0 single-asset SA attack the economic defenders face.
func topologicalEffectiveness(s *core.Scenario, cfg Config, capacityWeighted bool) (float64, error) {
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
	defended := baseline.Rank(scores).Defend(defenseCostsOf(s), cfg.systemDefenseBudget())
	undef := adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{})
	def := adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{Defended: defended})
	return undef - def, nil
}

// defenseCostsOf returns the scenario's defense costs as a plain map: its
// own when set, else unit costs for every target.
func defenseCostsOf(s *core.Scenario) map[string]float64 {
	out := map[string]float64{}
	if s.DefenseCosts != nil {
		for t, c := range s.DefenseCosts {
			out[t] = c
		}
		return out
	}
	for _, t := range s.Targets {
		out[t.ID] = 1
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
	series := []*stats.Series{
		t.AddSeries("anticipated"), t.AddSeries("realized"), t.AddSeries("deception value"),
	}
	scens := cfg.scenarios(n)
	// Each trial's realized profit at σ=0 (the undeceived reference), solved
	// by the first point that executes the trial and reused by its later
	// points; a trial that only replays, or another shard's, never solves it.
	refs := make([]memo, len(scens))
	for _, sigma := range cfg.sigmaGrid() {
		err := addPoint(cfg, fmt.Sprintf("deception σ=%v", sigma), sigma, series,
			func(ctx context.Context, trial int) ([]float64, error) {
				s := scens[trial]
				ref, err := refs[trial].get(func() (float64, error) {
					truth, err := s.Truth()
					if err != nil {
						return 0, err
					}
					plan, err := adversary.Solve(adversary.Config{
						Matrix: truth, Targets: s.Targets, Budget: cfg.attackBudget(), Ctx: ctx,
					})
					if err != nil {
						return 0, err
					}
					return adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{}), nil
				})
				if err != nil {
					return nil, err
				}
				ant, obs, err := noisyAttack(ctx, cfg, s, sigma, 0xE42, trial)
				return []float64{ant, obs, ref - obs}, err
			})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// memo holds one value computed on first success. A failed computation (a
// canceled or timed-out attempt, say) is not kept, so the next caller, such
// as a retry of the same trial, computes it afresh.
type memo struct {
	mu   sync.Mutex
	done bool
	v    float64
}

func (m *memo) get(compute func() (float64, error)) (float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return m.v, nil
	}
	v, err := compute()
	if err != nil {
		return 0, err
	}
	m.v, m.done = v, true
	return v, nil
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
	series := []*stats.Series{t.AddSeries("SA profit"), t.AddSeries("worst-case system damage")}
	scens := cfg.scenarios(n)
	for vi, vec := range StandardVectors() {
		err := addPoint(cfg, fmt.Sprintf("vectors %s", vec.Name), float64(vi), series,
			func(ctx context.Context, trial int) ([]float64, error) {
				s := scens[trial]
				an := &impact.Analysis{
					Graph: s.Graph, Ownership: s.Ownership,
					Parallel: parallel.Options{Workers: 1}, Cache: cfg.Cache,
				}
				g := s.Graph
				m, err := an.ComputeMatrixOf(nil, func(id string) []impact.Perturbation {
					e := g.Edge(id)
					cur := 0.0
					if e != nil {
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
					return nil, err
				}
				plan, err := adversary.Solve(adversary.Config{
					Matrix: m, Targets: s.Targets, Budget: cfg.attackBudget(),
					Ctx: ctx,
				})
				if err != nil {
					return nil, err
				}
				worst := 0.0
				for _, w := range m.WelfareDelta {
					if d := -w; d > worst {
						worst = d
					}
				}
				return []float64{plan.Anticipated, worst}, nil
			})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}
