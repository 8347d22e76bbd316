// Package noise implements the paper's knowledge-perturbation model
// (Section II-D4): to represent an agent's imperfect knowledge of the
// system, every structural parameter p is replaced by a draw from
// N(p, (σ·p)²), i.e. the standard deviation scales with the parameter so a
// single σ acts as a dimensionless "ignorance level" across quantities with
// different units. Draws are clamped to the parameter's legal domain
// (capacities, supplies, demands ≥ 0; losses ∈ [0, 0.95]).
//
// σ = 0 reproduces the ground truth exactly; the paper sweeps σ to trade
// knowledge for decision quality in Figures 3–6.
//
// The package perturbs graphs only. A noisy impact matrix, the agent's
// estimate I″ of Section II-F2, is drawn by impact.Matrix.Perturbed.
package noise

import (
	"cpsguard/internal/graph"
	"cpsguard/internal/rng"
)

// Model selects which parameter families are perturbed. The zero value
// perturbs everything (the paper's default).
type Model struct {
	// Sigma is the relative standard deviation of the knowledge noise.
	Sigma float64
	// SkipCosts leaves unit costs and prices exact (perturb only the
	// physical quantities). The paper perturbs "each parameter"; this
	// switch exists for ablations.
	SkipCosts bool
}

// Perturb returns a noisy deep copy of g under the model, drawing from rs.
// The input graph is never modified. With Sigma == 0 the copy equals the
// ground truth.
func Perturb(g *graph.Graph, m Model, rs *rng.Stream) *graph.Graph {
	out := g.Clone()
	if m.Sigma == 0 {
		return out
	}
	jitter := func(v float64) float64 {
		return v * (1 + m.Sigma*rs.NormFloat64())
	}
	for i := range out.Vertices {
		v := &out.Vertices[i]
		v.Supply = clampMin(jitter(v.Supply), 0)
		v.Demand = clampMin(jitter(v.Demand), 0)
		if !m.SkipCosts {
			v.SupplyCost = clampMin(jitter(v.SupplyCost), 0)
			v.Price = clampMin(jitter(v.Price), 0)
		}
	}
	for i := range out.Edges {
		e := &out.Edges[i]
		e.Capacity = clampMin(jitter(e.Capacity), 0)
		e.Loss = clamp(jitter(e.Loss), 0, 0.95)
		if !m.SkipCosts {
			// Costs may legitimately be negative (revenues); jitter
			// around the value without a sign clamp.
			e.Cost = jitter(e.Cost)
		}
	}
	return out
}

func clampMin(v, lo float64) float64 {
	if v < lo {
		return lo
	}
	return v
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
