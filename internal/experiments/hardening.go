package experiments

import (
	"fmt"

	"cpsguard/internal/adversary"
	"cpsguard/internal/core"
	"cpsguard/internal/defense"
	"cpsguard/internal/parallel"
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
	binS := t.AddSeries("binary")
	hardS := t.AddSeries("hardening")

	budgets := []float64{2, 4, 8, 16}
	scens := make([]*core.Scenario, cfg.trials())
	for i := range scens {
		scens[i] = cfg.scenarioFor(n, i)
	}
	for _, budget := range budgets {
		type pair struct{ bin, hard float64 }
		vals, err := parallel.Map(cfg.trials(), cfg.Parallel, func(trial int) (pair, error) {
			s := scens[trial]
			truth, err := s.Truth()
			if err != nil {
				return pair{}, err
			}
			targets := s.Targets
			basePlan, err := adversary.Solve(adversary.Config{
				Matrix: truth, Targets: targets, Budget: atkBudget,
			})
			if err != nil {
				return pair{}, err
			}
			baseProfit := adversary.Evaluate(basePlan, truth, targets, adversary.EvaluateOptions{})

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
				return pair{}, err
			}
			// The SA re-plans knowing the defended set is worthless.
			binTargets := make([]adversary.Target, len(targets))
			for i, tg := range targets {
				binTargets[i] = tg
				if defended[tg.ID] {
					binTargets[i].SuccessProb = 0
				}
			}
			binPlan, err := adversary.Solve(adversary.Config{
				Matrix: truth, Targets: binTargets, Budget: atkBudget,
			})
			if err != nil {
				return pair{}, err
			}
			binProfit := adversary.Evaluate(binPlan, truth, binTargets, adversary.EvaluateOptions{})

			// Hardening: pooled system hardening with the same budget.
			h, err := defense.PlanHardening(defense.HardeningConfig{
				Matrix: truth, Targets: targets,
				AttackProb: pa, Budget: budget, DecayScale: 2,
			})
			if err != nil {
				return pair{}, err
			}
			hardTargets := defense.ApplyHardening(targets, h, 1)
			hardPlan, err := adversary.Solve(adversary.Config{
				Matrix: truth, Targets: hardTargets, Budget: atkBudget,
			})
			if err != nil {
				return pair{}, err
			}
			hardProfit := adversary.Evaluate(hardPlan, truth, hardTargets, adversary.EvaluateOptions{})

			return pair{bin: baseProfit - binProfit, hard: baseProfit - hardProfit}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: hardening budget=%v: %w", budget, err)
		}
		var ba, ha stats.Accumulator
		for _, v := range vals {
			ba.Add(v.bin)
			ha.Add(v.hard)
		}
		binS.Add(budget, ba.Mean(), ba.StdErr())
		hardS.Add(budget, ha.Mean(), ha.StdErr())
	}
	return t, nil
}
