// The defense-as-redesign sweep: value every candidate intervention of the
// system's redesign menu by the screened worst-case damage it averts, then
// select a build plan under the capital budget. Unlike the figure sweeps,
// the trial axis here is the candidate menu, not ownership draws — trial i
// evaluates candidate i — so sparse runs (Config.TrialIndices) and shards
// partition the menu, and the candidate-set digest is baked into every
// trial's durable identity so journals from different menus can never be
// merged into one sweep.
package experiments

import (
	"context"
	"fmt"

	"cpsguard/internal/actors"
	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/impact"
	"cpsguard/internal/knapsack"
	"cpsguard/internal/parallel"
	"cpsguard/internal/rng"
	"cpsguard/internal/screen"
	"cpsguard/internal/stats"
)

func (c Config) interventionMax() int {
	if c.InterventionMax > 0 {
		return c.InterventionMax
	}
	return 12
}

func (c Config) screenK() int {
	if c.ScreenK > 0 {
		return c.ScreenK
	}
	return 2
}

// interventionScreen screens g at the configured depth over the base
// threat set and returns the worst-case damage (≥ 0).
func (c Config) interventionScreen(g *graph.Graph, targets []string) (float64, error) {
	an := &impact.Analysis{
		Graph:     g,
		Ownership: actors.RandomOwnership(g, 4, rng.Derive(c.seed(), 0x1F)),
		Cache:     c.Cache,
		Parallel:  parallel.Options{Workers: 1}, // trials already parallel
	}
	r, err := screen.Run(screen.Config{Analysis: an, Targets: targets, K: c.screenK()})
	if err != nil {
		return 0, err
	}
	if d := -r.Worst.Delta; d > 0 {
		return d, nil
	}
	return 0, nil
}

// InterventionMenu returns the candidate menu the Interventions sweep will
// evaluate for cfg — exported so callers can fingerprint the menu (e.g. for
// sweep keys) without duplicating the generation parameters.
func (c Config) InterventionMenu() []graph.Intervention {
	return gridgen.CandidateInterventions(c.graph(), gridgen.InterventionOptions{Max: c.interventionMax()})
}

// Interventions runs the redesign sweep over cfg's graph. The table has one
// row per candidate: x = candidate index, series "averted" (standalone
// worst-case damage reduction), "cost" (capital cost), and — only when the
// run is dense and unsharded, so every value is present — "chosen" (1 if
// the budget-constrained knapsack selection builds the candidate).
func Interventions(cfg Config) (*stats.Table, error) {
	cfg = cfg.withMemo()
	g := cfg.graph()
	cands := cfg.InterventionMenu()
	if len(cands) == 0 {
		return nil, fmt.Errorf("experiments: graph %s yields no intervention candidates", g.Name)
	}
	digest := gridgen.InterventionSetDigest(cands)
	// The base threat set is fixed to the *base* graph's assets so every
	// candidate's residual screen ranges over the same outages.
	threats := g.AssetIDs()

	base, err := cfg.interventionScreen(g, threats)
	if err != nil {
		return nil, fmt.Errorf("experiments: baseline screen: %w", err)
	}

	t := &stats.Table{
		Title:  fmt.Sprintf("Interventions: averted worst-case damage per candidate (%s)", digest),
		XLabel: "candidate",
		YLabel: "averted worst-case damage ($k/day)",
	}
	avertS := t.AddSeries("averted")
	costS := t.AddSeries("cost")

	// Index rides in the outcome so rows key correctly even when tolerated
	// trial failures leave holes in the survivor list.
	type outcome struct {
		Index         int
		Averted, Cost float64
	}
	// One trial per candidate; the menu digest is part of the point label,
	// hence of every checkpoint.TrialID, so a journal recorded against a
	// different menu can never replay into this sweep.
	point := fmt.Sprintf("interventions k=%d %s", cfg.screenK(), digest)
	idxs := cfg.TrialIndices
	sparse := idxs != nil
	if idxs == nil {
		idxs = make([]int, len(cands))
		for i := range idxs {
			idxs[i] = i
		}
	}
	for _, i := range idxs {
		if i < 0 || i >= len(cands) {
			return nil, fmt.Errorf("experiments: trial index %d outside candidate menu [0,%d)", i, len(cands))
		}
	}
	trialCfg := cfg
	trialCfg.Trials = len(cands)
	vals, err := runTrialsAt(trialCfg, point, idxs,
		func(ctx context.Context, trial int) (outcome, error) {
			iv := cands[trial]
			gi, err := graph.ApplyInterventions(g, iv)
			if err != nil {
				return outcome{}, err
			}
			residual, err := cfg.interventionScreen(gi, threats)
			if err != nil {
				return outcome{}, err
			}
			return outcome{Index: trial, Averted: base - residual, Cost: iv.Cost}, nil
		})
	if err != nil {
		return nil, err
	}
	values := make([]float64, len(cands))
	costs := make([]float64, len(cands))
	for _, v := range vals {
		avertS.Add(float64(v.Index), v.Averted, 0)
		costS.Add(float64(v.Index), v.Cost, 0)
		values[v.Index], costs[v.Index] = v.Averted, v.Cost
	}
	// The knapsack selection needs every candidate valued: a sparse or
	// sharded run, or one with tolerated failures, reports values only.
	complete := !sparse && cfg.Shard == nil && len(vals) == len(cands)

	if complete {
		budget := cfg.InterventionBudget
		if budget <= 0 {
			total := 0.0
			for _, c := range costs {
				total += c
			}
			budget = total / 2
		}
		chosen, _ := knapsack.Solve(values, costs, budget)
		chosenS := t.AddSeries("chosen")
		inPlan := make(map[int]bool, len(chosen))
		for _, i := range chosen {
			inPlan[i] = true
		}
		for i := range cands {
			y := 0.0
			if inPlan[i] {
				y = 1
			}
			chosenS.Add(float64(i), y, 0)
		}
	}
	return t, nil
}
