// Graduated hardening (Section II-E4).
//
// The paper's binary defense D(t) ∈ {0,1} nullifies an attack outright; its
// discussion of the adversary model notes the real effect of security
// spending is graduated: "adding layers of security reduces the probability
// of successful attack and increases the cost of an attack." This file
// models that continuum: investing x in asset t scales the attack's success
// probability by exp(−x/DecayScale) and raises its cost by CostSlope·x.
// Marginal returns are therefore decreasing in x, so the optimal allocation
// of a defender's budget across assets is found by greedy marginal
// allocation, which is optimal for separable concave value functions.
package defense

import (
	"errors"
	"math"
	"sort"

	"cpsguard/internal/adversary"
	"cpsguard/internal/impact"
)

// HardeningConfig states a graduated-defense problem.
type HardeningConfig struct {
	// Matrix is the defender's believed impact matrix.
	Matrix *impact.Matrix
	// Targets supplies the baseline Catk and Ps per asset.
	Targets []adversary.Target
	// AttackProb is Pa(t), the believed attack likelihood.
	AttackProb map[string]float64
	// Budget is the total hardening spend available.
	Budget float64
	// DecayScale is the e-folding investment: Ps(x) = Ps0·exp(−x/DecayScale)
	// (default 1).
	DecayScale float64
	// Step is the allocation granularity (default Budget/100).
	Step float64
	// Actor restricts hardening to one actor's losses; empty hardens on
	// behalf of the whole system (pooled view).
	Actor string
}

func (c HardeningConfig) decay() float64 {
	if c.DecayScale > 0 {
		return c.DecayScale
	}
	return 1
}

func (c HardeningConfig) step() float64 {
	if c.Step > 0 {
		return c.Step
	}
	s := c.Budget / 100
	if s <= 0 {
		s = 1
	}
	return s
}

// Hardening is a continuous defense allocation.
type Hardening struct {
	// Invest maps asset → hardening spend.
	Invest map[string]float64
	// ResidualPs maps asset → post-hardening success probability.
	ResidualPs map[string]float64
	// ExpectedAverted is the believed reduction in expected loss.
	ExpectedAverted float64
}

// systemLoss aggregates the believed loss at target t (for one actor, or
// summed across all harmed actors when actor is "").
func systemLoss(m *impact.Matrix, actor, t string) float64 {
	if actor != "" {
		return loss(m, actor, t)
	}
	total := 0.0
	for _, a := range m.Actors {
		total += loss(m, a, t)
	}
	return total
}

// PlanHardening allocates the budget greedily by marginal averted loss.
func PlanHardening(cfg HardeningConfig) (*Hardening, error) {
	if cfg.Matrix == nil {
		return nil, errors.New("defense: nil impact matrix")
	}
	if cfg.Budget < 0 {
		return nil, errors.New("defense: negative hardening budget")
	}
	type asset struct {
		id     string
		ps0    float64
		expect float64 // Pa·loss — expected loss at Ps=1 scale
		invest float64
	}
	var assets []asset
	for _, t := range cfg.Targets {
		l := systemLoss(cfg.Matrix, cfg.Actor, t.ID)
		pa := cfg.AttackProb[t.ID]
		if l <= 0 || pa <= 0 || t.SuccessProb <= 0 {
			continue
		}
		assets = append(assets, asset{id: t.ID, ps0: t.SuccessProb, expect: pa * l})
	}
	sort.Slice(assets, func(i, j int) bool { return assets[i].id < assets[j].id })

	h := &Hardening{Invest: map[string]float64{}, ResidualPs: map[string]float64{}}
	decay := cfg.decay()
	step := cfg.step()
	remaining := cfg.Budget
	// Greedy: each step goes to the asset with the highest marginal
	// averted loss d/dx [expect·ps0·exp(−x/decay)] = expect·ps0/decay·exp(−x/decay).
	for remaining >= step-1e-12 {
		best := -1
		bestMarginal := 0.0
		for i := range assets {
			m := assets[i].expect * assets[i].ps0 / decay * math.Exp(-assets[i].invest/decay)
			if m > bestMarginal {
				bestMarginal = m
				best = i
			}
		}
		if best < 0 || bestMarginal*step < 1e-15 {
			break
		}
		assets[best].invest += step
		remaining -= step
	}
	for _, a := range assets {
		if a.invest > 0 {
			h.Invest[a.id] = a.invest
		}
		residual := a.ps0 * math.Exp(-a.invest/decay)
		h.ResidualPs[a.id] = residual
		h.ExpectedAverted += a.expect * (a.ps0 - residual)
	}
	for _, t := range cfg.Targets {
		if _, ok := h.ResidualPs[t.ID]; !ok {
			h.ResidualPs[t.ID] = t.SuccessProb
		}
	}
	return h, nil
}

// ApplyHardening returns a copy of targets with success probabilities
// replaced by the hardened residuals and costs raised by costSlope times
// the investment — the adversary now faces the hardened economics.
func ApplyHardening(targets []adversary.Target, h *Hardening, costSlope float64) []adversary.Target {
	out := make([]adversary.Target, len(targets))
	for i, t := range targets {
		nt := t
		if ps, ok := h.ResidualPs[t.ID]; ok {
			nt.SuccessProb = ps
		}
		nt.Cost += costSlope * h.Invest[t.ID]
		out[i] = nt
	}
	return out
}
