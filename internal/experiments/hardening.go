package experiments

import (
	"context"
	"fmt"

	"cpsguard/internal/adversary"
	"cpsguard/internal/defense"
	"cpsguard/internal/stats"
)

// HardeningComparison (Ext E) compares the paper's binary defense with the
// graduated hardening of Section II-E4 across system defense budgets: both
// defenders face the same perfectly-informed strategic adversary (budget 3,
// uniform unit costs), and the metric is the reduction of the SA's realized
// profit versus the undefended system. Binary defense nullifies a few
// assets outright; hardening thins success probability (and raises attack
// cost) across many.
func HardeningComparison(cfg Config) (*stats.Table, error) {
	cfg = cfg.withMemo()
	t := &stats.Table{
		Title:  "Ext E: binary defense vs graduated hardening (6 actors)",
		XLabel: "system defense budget",
		YLabel: "SA profit reduction ($k/day)",
	}
	const n = 6
	const atkBudget = 3
	series := []*stats.Series{t.AddSeries("binary"), t.AddSeries("hardening")}
	scens := cfg.scenarios(n)
	for _, budget := range []float64{2, 4, 8, 16} {
		err := addPoint(cfg, fmt.Sprintf("hardening budget=%v", budget), budget, series,
			func(ctx context.Context, trial int) ([]float64, error) {
				s := scens[trial]
				truth, err := s.Truth()
				if err != nil {
					return nil, err
				}
				// realized plans the SA's attack on targets and returns its
				// profit on the ground truth.
				realized := func(targets []adversary.Target) (float64, *adversary.Plan, error) {
					plan, err := adversary.Solve(adversary.Config{
						Matrix: truth, Targets: targets, Budget: atkBudget, Ctx: ctx,
					})
					if err != nil {
						return 0, nil, err
					}
					return adversary.Evaluate(plan, truth, targets, adversary.EvaluateOptions{}), plan, nil
				}
				targets := s.Targets
				baseProfit, basePlan, err := realized(targets)
				if err != nil {
					return nil, err
				}

				// Both defenders believe the SA will hit the base plan's
				// targets.
				pa := map[string]float64{}
				for _, tg := range basePlan.Targets {
					pa[tg] = 1
				}

				// Binary: collaborative defense with per-actor share of the
				// budget.
				defended, _, err := defense.Invest(truth, s.Ownership, pa, defense.UniformCosts(truth.Targets, 1),
					budget/float64(len(truth.Actors)), true)
				if err != nil {
					return nil, err
				}
				// The SA re-plans knowing the defended set is worthless.
				binTargets := make([]adversary.Target, len(targets))
				for i, tg := range targets {
					binTargets[i] = tg
					if defended[tg.ID] {
						binTargets[i].SuccessProb = 0
					}
				}
				binProfit, _, err := realized(binTargets)
				if err != nil {
					return nil, err
				}

				// Hardening: pooled system hardening with the same budget.
				h, err := defense.PlanHardening(defense.HardeningConfig{
					Matrix: truth, Targets: targets,
					AttackProb: pa, Budget: budget, DecayScale: 2,
				})
				if err != nil {
					return nil, err
				}
				hardProfit, _, err := realized(defense.ApplyHardening(targets, h, 1))
				if err != nil {
					return nil, err
				}
				return []float64{baseProfit - binProfit, baseProfit - hardProfit}, nil
			})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}
