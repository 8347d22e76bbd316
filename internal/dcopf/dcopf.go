// Package dcopf implements a classical DC optimal power flow — the
// "traditional power system optimization" the paper explicitly simplifies
// away (Section II-D1: its constraints "do not consider the stability of
// the grid … New technologies (specifically D-FACTS) allow for a more
// simplified view of grid planning", citing Dommel & Tinney's OPF [16]).
//
// In the DC approximation every bus has a voltage angle θ and each line's
// flow is dictated by physics rather than chosen freely:
//
//	f(u,v) = B(u,v) · (θ_u − θ_v),  |f| ≤ capacity
//
// so flows follow Kirchhoff's laws and cannot be routed at will. The
// package provides this substrate so users can quantify how much the
// paper's transport-style dispatch overstates the system's flexibility:
// Compare returns the welfare of both dispatches on the same network; the
// DC welfare is never higher, and the gap is the value of the D-FACTS-style
// controllability the paper assumes.
//
// Angles are free-signed while the LP substrate's variables are boxed in
// [0, u], so each bus carries one shifted angle θ' = θ + MaxAngle in
// [0, 2·MaxAngle]; the shift cancels in every angle difference. Each line
// flow is f⁺ − f⁻, so that a line's cost can apply to |f|, coupled to the
// angle difference by an equality row.
package dcopf

import (
	"errors"
	"fmt"

	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/lp"
)

// Susceptance assigns each edge a B(u,v); the default derives it from
// capacity and loss (stiffer lines carry more).
type Susceptance func(e *graph.Edge) float64

// DefaultSusceptance is proportional to capacity: a line rated for more
// power is assumed electrically stiffer. Any positive scale works — only
// relative values shape the flow split.
func DefaultSusceptance(e *graph.Edge) float64 {
	if e.Capacity <= 0 {
		return 0
	}
	return e.Capacity
}

// Result is a solved DC-OPF.
type Result struct {
	Welfare float64
	// Flow holds signed line flows (positive in the edge's direction).
	Flow map[string]float64
	// Angle holds bus voltage angles (radians, reference bus 0).
	Angle map[string]float64
	Gen   map[string]float64
	Load  map[string]float64
	// Iterations counts simplex pivots.
	Iterations int
}

// Options configures Solve.
type Options struct {
	// Susceptance overrides DefaultSusceptance.
	Susceptance Susceptance
	// MaxAngle bounds |θ| per bus (default 10 rad — loose; it exists to
	// keep the LP bounded).
	MaxAngle float64
	// LP forwards solver options.
	LP lp.Options
}

func (o Options) susceptance() Susceptance {
	if o.Susceptance != nil {
		return o.Susceptance
	}
	return DefaultSusceptance
}

func (o Options) maxAngle() float64 {
	if o.MaxAngle > 0 {
		return o.MaxAngle
	}
	return 10
}

// Solve computes the DC-OPF welfare optimum of g. Losses are ignored (the
// DC approximation is lossless); edge costs apply to |f| via the f⁺/f⁻
// split.
func Solve(g *graph.Graph, opts Options) (*Result, error) {
	if g == nil {
		return nil, errors.New("dcopf: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	sus := opts.susceptance()
	maxA := opts.maxAngle()

	p := lp.NewProblem()
	nV := len(g.Vertices)
	th := make([]int, nV)
	gVar := make([]int, nV)
	xVar := make([]int, nV)
	for i, v := range g.Vertices {
		th[i] = p.AddVariable("th:"+v.ID, 0, 2*maxA)
		if v.Supply > 0 {
			gVar[i] = p.AddVariable("g:"+v.ID, v.SupplyCost, v.Supply)
		} else {
			gVar[i] = -1
		}
		if v.Demand > 0 {
			xVar[i] = p.AddVariable("x:"+v.ID, -v.Price, v.Demand)
		} else {
			xVar[i] = -1
		}
	}
	// Reference bus: θ_0 = 0, i.e. θ'_0 = MaxAngle.
	if nV > 0 {
		p.AddConstraint(lp.Constraint{
			Coefs: []lp.Coef{{Var: th[0], Value: 1}},
			Sense: lp.EQ, RHS: maxA, Name: "ref",
		})
	}
	// Line flows: f = f⁺ − f⁻, f = B(θ_u − θ_v), |f| ≤ cap.
	fP := make([]int, len(g.Edges))
	fN := make([]int, len(g.Edges))
	for j, e := range g.Edges {
		b := sus(&g.Edges[j])
		fP[j] = p.AddVariable("f+:"+e.ID, e.Cost, e.Capacity)
		fN[j] = p.AddVariable("f-:"+e.ID, e.Cost, e.Capacity)
		if b <= 0 {
			// Zero-susceptance (outaged) line: force f = 0.
			p.AddConstraint(lp.Constraint{
				Coefs: []lp.Coef{{Var: fP[j], Value: 1}, {Var: fN[j], Value: 1}},
				Sense: lp.EQ, RHS: 0, Name: "dead:" + e.ID,
			})
			continue
		}
		u, v := g.VertexIndex(e.From), g.VertexIndex(e.To)
		p.AddConstraint(lp.Constraint{
			Coefs: []lp.Coef{
				{Var: fP[j], Value: 1}, {Var: fN[j], Value: -1},
				{Var: th[u], Value: -b}, {Var: th[v], Value: b},
			},
			Sense: lp.EQ, RHS: 0, Name: "kirchhoff:" + e.ID,
		})
	}
	// Nodal balance: gen + Σ inflow − Σ outflow − load = 0 (signed flows).
	for i, v := range g.Vertices {
		var coefs []lp.Coef
		for j, e := range g.Edges {
			if e.To == v.ID {
				coefs = append(coefs, lp.Coef{Var: fP[j], Value: 1}, lp.Coef{Var: fN[j], Value: -1})
			}
			if e.From == v.ID {
				coefs = append(coefs, lp.Coef{Var: fP[j], Value: -1}, lp.Coef{Var: fN[j], Value: 1})
			}
		}
		if gVar[i] >= 0 {
			coefs = append(coefs, lp.Coef{Var: gVar[i], Value: 1})
		}
		if xVar[i] >= 0 {
			coefs = append(coefs, lp.Coef{Var: xVar[i], Value: -1})
		}
		if len(coefs) == 0 {
			continue
		}
		p.AddConstraint(lp.Constraint{
			Coefs: coefs, Sense: lp.EQ, RHS: 0, Name: "bal:" + v.ID,
		})
	}

	// The f± pairs leave the LP degenerate; the simplex's Harris ratio
	// test keeps its pivots steady, so one Dantzig solve finishes it.
	sol, err := p.SolveOpts(opts.LP)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("dcopf: LP status %v", sol.Status)
	}
	res := &Result{
		Flow:       map[string]float64{},
		Angle:      map[string]float64{},
		Gen:        map[string]float64{},
		Load:       map[string]float64{},
		Iterations: sol.Iterations,
	}
	for j, e := range g.Edges {
		f := sol.X[fP[j]] - sol.X[fN[j]]
		res.Flow[e.ID] = f
		res.Welfare -= e.Cost * (sol.X[fP[j]] + sol.X[fN[j]])
	}
	for i, v := range g.Vertices {
		res.Angle[v.ID] = sol.X[th[i]] - maxA
		if gVar[i] >= 0 {
			res.Gen[v.ID] = sol.X[gVar[i]]
			res.Welfare -= v.SupplyCost * res.Gen[v.ID]
		}
		if xVar[i] >= 0 {
			res.Load[v.ID] = sol.X[xVar[i]]
			res.Welfare += v.Price * res.Load[v.ID]
		}
	}
	return res, nil
}

// Compare dispatches g under both models and returns the transport welfare,
// the DC welfare, and the controllability gap (transport − DC ≥ 0 on
// loss-free graphs: Kirchhoff flows are a subset of transport flows).
func Compare(g *graph.Graph, opts Options) (transport, dc, gap float64, err error) {
	tr, err := flow.Dispatch(g)
	if err != nil {
		return 0, 0, 0, err
	}
	dcr, err := Solve(g, opts)
	if err != nil {
		return 0, 0, 0, err
	}
	return tr.Welfare, dcr.Welfare, tr.Welfare - dcr.Welfare, nil
}
