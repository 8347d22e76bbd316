// Package multiperiod implements the time-domain extension the paper
// sketches in Section II-D5: "a time-domain component can be added to the
// model by integrating several instances of the utility function to
// represent varying demands and generating constraints."
//
// A Horizon is a weighted sequence of demand/supply snapshots of one graph;
// the dispatch couples consecutive periods through generator ramp limits
// (the paper's "it may take several minutes (or hours) for generating
// facilities to achieve maximum output") and maximizes the duration-
// weighted sum of per-period social welfare in a single LP.
//
// Attacks gain a duration dimension: a perturbation applied to a subset of
// periods measures an outage that starts and ends within the horizon, with
// ramp limits making recovery gradual rather than instantaneous.
package multiperiod

import (
	"errors"
	"fmt"
	"math"

	"cpsguard/internal/graph"
	"cpsguard/internal/impact"
	"cpsguard/internal/lp"
)

// Period is one snapshot of operating conditions.
type Period struct {
	// Name labels the period ("night", "peak", …).
	Name string
	// Weight is the period's duration share; welfare contributions are
	// scaled by it. Must be positive.
	Weight float64
	// DemandScale multiplies every vertex demand (default 1 when zero).
	DemandScale float64
	// SupplyScale multiplies every vertex supply (default 1 when zero).
	SupplyScale float64
}

func (p Period) demandScale() float64 {
	if p.DemandScale == 0 {
		return 1
	}
	return p.DemandScale
}

func (p Period) supplyScale() float64 {
	if p.SupplyScale == 0 {
		return 1
	}
	return p.SupplyScale
}

// Config states a multi-period dispatch.
type Config struct {
	// Graph is the base system; per-period scales derive from it.
	Graph *graph.Graph
	// Periods is the horizon, in order. At least one.
	Periods []Period
	// Ramp maps generator vertex IDs to the maximum absolute change of
	// injection between consecutive periods. Vertices absent from the
	// map ramp freely.
	Ramp map[string]float64
	// Attacks lists perturbations and the period range they span.
	Attacks []TimedAttack
	// LP forwards solver options.
	LP lp.Options
}

// TimedAttack is a perturbation active during [From, To] (inclusive period
// indices).
type TimedAttack struct {
	Perturbation impact.Perturbation
	From, To     int
}

// PeriodResult is one period's dispatch outcome.
type PeriodResult struct {
	Name    string
	Welfare float64 // unweighted, this period's snapshot welfare
	Flow    map[string]float64
	Gen     map[string]float64
	Load    map[string]float64
}

// Result is a solved horizon.
type Result struct {
	// Total is the duration-weighted welfare Σ weight_t · welfare_t.
	Total float64
	// Periods holds per-period outcomes in order.
	Periods []PeriodResult
	// Iterations counts simplex pivots.
	Iterations int
}

// ErrBadHorizon reports an invalid configuration.
var ErrBadHorizon = errors.New("multiperiod: invalid horizon")

// Dispatch solves the coupled multi-period welfare optimum.
func Dispatch(cfg Config) (*Result, error) {
	if cfg.Graph == nil || len(cfg.Periods) == 0 {
		return nil, fmt.Errorf("%w: nil graph or empty horizon", ErrBadHorizon)
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, err
	}
	for i, p := range cfg.Periods {
		// NaN fails every comparison, so test weight validity positively.
		if !(p.Weight > 0) || math.IsInf(p.Weight, 0) {
			return nil, fmt.Errorf("%w: period %d weight %v", ErrBadHorizon, i, p.Weight)
		}
		for _, s := range [2]float64{p.demandScale(), p.supplyScale()} {
			if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
				return nil, fmt.Errorf("%w: period %d scale %v", ErrBadHorizon, i, s)
			}
		}
	}
	for _, a := range cfg.Attacks {
		if a.From < 0 || a.To >= len(cfg.Periods) || a.From > a.To {
			return nil, fmt.Errorf("%w: attack range [%d,%d]", ErrBadHorizon, a.From, a.To)
		}
		if v := a.Perturbation.Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: attack on %q with value %v", ErrBadHorizon, a.Perturbation.EdgeID, v)
		}
	}
	for id, r := range cfg.Ramp {
		if math.IsNaN(r) || math.IsInf(r, -1) || r < 0 {
			return nil, fmt.Errorf("%w: ramp for %q is %v", ErrBadHorizon, id, r)
		}
	}

	// Materialize the per-period graphs (scales + active attacks).
	graphs := make([]*graph.Graph, len(cfg.Periods))
	for t, p := range cfg.Periods {
		gt := cfg.Graph.Clone()
		for i := range gt.Vertices {
			gt.Vertices[i].Demand *= p.demandScale()
			gt.Vertices[i].Supply *= p.supplyScale()
		}
		for _, a := range cfg.Attacks {
			if t < a.From || t > a.To {
				continue
			}
			e := gt.Edge(a.Perturbation.EdgeID)
			if e == nil {
				return nil, fmt.Errorf("multiperiod: unknown attacked edge %q", a.Perturbation.EdgeID)
			}
			switch a.Perturbation.Field {
			case impact.Capacity:
				e.Capacity = a.Perturbation.Value
			case impact.Cost:
				e.Cost = a.Perturbation.Value
			case impact.Loss:
				e.Loss = a.Perturbation.Value
			default:
				return nil, fmt.Errorf("multiperiod: unknown field %v", a.Perturbation.Field)
			}
		}
		if err := gt.Validate(); err != nil {
			return nil, err
		}
		graphs[t] = gt
	}

	// Build the coupled LP: per-period flow/gen/load variables plus ramp
	// rows between consecutive periods.
	prob := lp.NewProblem()
	prob.SetName(fmt.Sprintf("multiperiod[%d]", len(cfg.Periods)))
	nT := len(cfg.Periods)
	base := cfg.Graph
	nE, nV := len(base.Edges), len(base.Vertices)
	fVar := make([][]int, nT)
	gVar := make([][]int, nT)
	xVar := make([][]int, nT)
	for t := 0; t < nT; t++ {
		gt := graphs[t]
		w := cfg.Periods[t].Weight
		fVar[t] = make([]int, nE)
		gVar[t] = make([]int, nV)
		xVar[t] = make([]int, nV)
		for j, e := range gt.Edges {
			fVar[t][j] = prob.AddVariable(fmt.Sprintf("f%d:%s", t, e.ID), w*e.Cost, e.Capacity)
		}
		for i, v := range gt.Vertices {
			if v.Supply > 0 {
				gVar[t][i] = prob.AddVariable(fmt.Sprintf("g%d:%s", t, v.ID), w*v.SupplyCost, v.Supply)
			} else {
				gVar[t][i] = -1
			}
			if v.Demand > 0 {
				xVar[t][i] = prob.AddVariable(fmt.Sprintf("x%d:%s", t, v.ID), -w*v.Price, v.Demand)
			} else {
				xVar[t][i] = -1
			}
		}
		// Conservation rows.
		for i, v := range gt.Vertices {
			var coefs []lp.Coef
			for j, e := range gt.Edges {
				if e.To == v.ID {
					coefs = append(coefs, lp.Coef{Var: fVar[t][j], Value: 1})
				}
				if e.From == v.ID {
					coefs = append(coefs, lp.Coef{Var: fVar[t][j], Value: -1 / (1 - e.Loss)})
				}
			}
			if gVar[t][i] >= 0 {
				coefs = append(coefs, lp.Coef{Var: gVar[t][i], Value: 1})
			}
			if xVar[t][i] >= 0 {
				coefs = append(coefs, lp.Coef{Var: xVar[t][i], Value: -1})
			}
			if len(coefs) == 0 {
				continue
			}
			prob.AddConstraint(lp.Constraint{
				Coefs: coefs, Sense: lp.EQ, RHS: 0,
				Name: fmt.Sprintf("cons%d:%s", t, v.ID),
			})
		}
	}
	// Ramp rows: |g_t − g_{t−1}| ≤ ramp.
	for id, ramp := range cfg.Ramp {
		vi := base.VertexIndex(id)
		if vi < 0 {
			return nil, fmt.Errorf("multiperiod: ramp for unknown vertex %q", id)
		}
		for t := 1; t < nT; t++ {
			cur, prev := gVar[t][vi], gVar[t-1][vi]
			if cur < 0 || prev < 0 {
				continue
			}
			prob.AddConstraint(lp.Constraint{
				Coefs: []lp.Coef{{Var: cur, Value: 1}, {Var: prev, Value: -1}},
				Sense: lp.LE, RHS: ramp,
				Name: fmt.Sprintf("rampup%d:%s", t, id),
			})
			prob.AddConstraint(lp.Constraint{
				Coefs: []lp.Coef{{Var: cur, Value: -1}, {Var: prev, Value: 1}},
				Sense: lp.LE, RHS: ramp,
				Name: fmt.Sprintf("rampdn%d:%s", t, id),
			})
		}
	}

	sol, err := prob.SolveOpts(cfg.LP)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("multiperiod: LP status %v", sol.Status)
	}

	res := &Result{Iterations: sol.Iterations, Periods: make([]PeriodResult, nT)}
	for t := 0; t < nT; t++ {
		gt := graphs[t]
		pr := PeriodResult{
			Name: cfg.Periods[t].Name,
			Flow: make(map[string]float64, nE),
			Gen:  map[string]float64{},
			Load: map[string]float64{},
		}
		for j, e := range gt.Edges {
			pr.Flow[e.ID] = sol.X[fVar[t][j]]
			pr.Welfare -= e.Cost * pr.Flow[e.ID]
		}
		for i, v := range gt.Vertices {
			if gVar[t][i] >= 0 {
				pr.Gen[v.ID] = sol.X[gVar[t][i]]
				pr.Welfare -= v.SupplyCost * pr.Gen[v.ID]
			}
			if xVar[t][i] >= 0 {
				pr.Load[v.ID] = sol.X[xVar[t][i]]
				pr.Welfare += v.Price * pr.Load[v.ID]
			}
		}
		res.Periods[t] = pr
		res.Total += cfg.Periods[t].Weight * pr.Welfare
	}
	return res, nil
}

// ImpactOf measures a timed attack's duration-weighted welfare impact:
// Dispatch(with attacks) − Dispatch(without).
func ImpactOf(cfg Config, attacks ...TimedAttack) (float64, error) {
	clean := cfg
	clean.Attacks = nil
	baseRes, err := Dispatch(clean)
	if err != nil {
		return 0, err
	}
	attacked := cfg
	attacked.Attacks = append(append([]TimedAttack(nil), cfg.Attacks...), attacks...)
	attRes, err := Dispatch(attacked)
	if err != nil {
		return 0, err
	}
	return attRes.Total - baseRes.Total, nil
}
