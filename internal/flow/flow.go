// Package flow implements the social-welfare dispatch of Section II-D1:
// given an energy flow graph it chooses edge flows, generator injections and
// load deliveries that maximize system-wide profit (social welfare), subject
// to the paper's Eqs. 2–7 (capacity limits, supply/demand caps, and
// loss-aware conservation of energy at every hub).
//
// The LP it builds is:
//
//	maximize  Σ_v price(v)·x_v − Σ_v supplyCost(v)·g_v − Σ_e cost(e)·f_e
//	subject to, at every vertex v:
//	    Σ_in f_(u,v) + g_v  =  Σ_out f_(v,w)/(1−loss(v,w)) + x_v
//	and 0 ≤ f_e ≤ cap(e),  0 ≤ g_v ≤ supply(v),  0 ≤ x_v ≤ demand(v).
//
// Flows are measured at the delivery end: pushing f across a lossy edge
// draws f/(1−l) at the sending hub, which is exactly the 1/(1−l) grossing-up
// of the paper's Eq. 7.
//
// The vertex conservation duals λ(v) are the marginal value of one extra
// unit of energy appearing at v — the "price of the alternative" the paper
// uses for competitive profit division (Section II-D2). They are returned in
// Result.Price, indexed by vertex.
package flow

import (
	"fmt"

	"cpsguard/internal/graph"
	"cpsguard/internal/lp"
)

// Result is a solved dispatch. Its slices are indexed like the dispatched
// graph's edges or vertices; callers holding an ID use g.EdgeIndex or
// g.VertexIndex.
type Result struct {
	// Welfare is the maximized social welfare (total system profit).
	Welfare float64
	// Flow is the delivered flow on each edge, indexed like g.Edges.
	Flow []float64
	// Gen is the generator injection at each vertex, indexed like
	// g.Vertices (0 where the vertex has no supply).
	Gen []float64
	// Load is the demand actually served at each vertex, indexed like
	// g.Vertices (0 where the vertex has no demand).
	Load []float64
	// Price is the marginal value λ(v) of energy at each vertex, indexed
	// like g.Vertices: the dual of its conservation constraint (0 at an
	// isolated vertex, which has none). By LP duality, injecting one
	// marginal unit of free energy at v would raise welfare by λ(v).
	Price []float64
	// CapacityRent is the shadow price of each edge's capacity constraint,
	// indexed like g.Edges: the welfare gain from one more unit of
	// capacity.
	CapacityRent []float64
	// Iterations counts simplex pivots (for performance diagnostics).
	Iterations int
	// Basis is the optimal simplex basis. Feed it to Options.LP.WarmStart
	// on a structurally identical dispatch — e.g. the same grid with an
	// edge knocked out — to skip phase 1.
	Basis *lp.Basis
	// WarmStarted reports whether this dispatch was solved on the LP
	// warm path.
	WarmStarted bool
}

// InfeasibleError reports a dispatch LP that ended without an optimum,
// carrying the LP status. The LP is always feasible at f=g=x=0 (every lower
// bound is zero), so the status says why the solver stopped short of an
// optimum.
type InfeasibleError struct{ Status lp.Status }

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("flow: dispatch LP terminated with status %v", e.Status)
}

// Dispatch solves the social-welfare optimum for g.
func Dispatch(g *graph.Graph) (*Result, error) {
	return DispatchOpts(g, Options{})
}

// Options tunes dispatch.
type Options struct {
	// LP forwards solver options.
	LP lp.Options
}

// DispatchOpts solves the social-welfare optimum with explicit options: one
// Compile and one Solve.
func DispatchOpts(g *graph.Graph, opts Options) (*Result, error) {
	d, err := Compile(g)
	if err != nil {
		return nil, err
	}
	return d.Solve(opts.LP)
}

// Dispatcher is the dispatch LP of one graph, compiled once: the graph is
// validated and the LP's variables and rows are built a single time, so
// re-solving it under parameter edits (SolveEdited) costs a copy of the
// bound and objective vectors rather than a rebuild. A Dispatcher is safe
// for concurrent use; the compiled graph must not be mutated while it is in
// use.
type Dispatcher struct {
	b *builder
	p *lp.Problem
}

// Compile validates g and builds its dispatch LP.
func Compile(g *graph.Graph) (*Dispatcher, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	b := newBuilder(g)
	return &Dispatcher{b: b, p: b.build()}, nil
}

// Solve dispatches the compiled graph.
func (d *Dispatcher) Solve(opts lp.Options) (*Result, error) {
	return d.solve(d.p, opts)
}

// SolveEdited dispatches ge, a parameter edit of the compiled graph: the
// same vertices and the same edges (IDs and endpoints, in the same order),
// whose capacities, costs and losses may differ. Capacities become upper
// bounds and costs objective coefficients of a Variant of the compiled LP,
// whose rows are shared. A loss edit changes matrix coefficients, so ge is
// then compiled afresh. The caller validates the edited values; a capacity
// the LP cannot take (negative or NaN) fails with lp.ErrBadProblem.
func (d *Dispatcher) SolveEdited(ge *graph.Graph, opts lp.Options) (*Result, error) {
	p := d.p.Variant()
	for i := range ge.Edges {
		e := &ge.Edges[i]
		if e.Loss != d.b.g.Edges[i].Loss {
			return DispatchOpts(ge, Options{LP: opts})
		}
		p.SetUpper(i, e.Capacity)
		p.SetCost(i, e.Cost)
	}
	return d.solve(p, opts)
}

func (d *Dispatcher) solve(p *lp.Problem, opts lp.Options) (*Result, error) {
	sol, err := p.SolveOpts(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, &InfeasibleError{Status: sol.Status}
	}
	return d.b.result(sol), nil
}

// builder maps graph entities to LP variable/constraint indices. Edge j's
// flow is LP variable j: build adds the edge flows first.
type builder struct {
	g *graph.Graph
	// variable indices
	gVar []int // per vertex, -1 if no supply
	xVar []int // per vertex, -1 if no demand
	// constraint indices
	consRow []int // conservation row per vertex
}

func newBuilder(g *graph.Graph) *builder {
	return &builder{
		g:       g,
		gVar:    make([]int, len(g.Vertices)),
		xVar:    make([]int, len(g.Vertices)),
		consRow: make([]int, len(g.Vertices)),
	}
}

func (b *builder) build() *lp.Problem {
	g := b.g
	p := lp.NewProblem()
	// Edge flow variables. The LP minimizes, so welfare terms enter
	// negated: minimize Σ a·f + Σ gc·g − Σ price·x.
	for _, e := range g.Edges {
		p.AddVariable("f:"+e.ID, e.Cost, e.Capacity)
	}
	for i, v := range g.Vertices {
		if v.Supply > 0 {
			b.gVar[i] = p.AddVariable("g:"+v.ID, v.SupplyCost, v.Supply)
		} else {
			b.gVar[i] = -1
		}
		if v.Demand > 0 {
			b.xVar[i] = p.AddVariable("x:"+v.ID, -v.Price, v.Demand)
		} else {
			b.xVar[i] = -1
		}
	}
	// Conservation rows: inflow + gen − Σ out f/(1−l) − load = 0. Each
	// row lists its edge terms in edge order (+1 where the edge enters the
	// hub, −1/(1−l) where it leaves), then generation, then load; two
	// passes over the edges fill every row at its exact size.
	from := make([]int, len(g.Edges))
	to := make([]int, len(g.Edges))
	size := make([]int, len(g.Vertices))
	for j := range g.Edges {
		e := &g.Edges[j]
		from[j], to[j] = g.VertexIndex(e.From), g.VertexIndex(e.To)
		size[to[j]]++
		size[from[j]]++
	}
	total := 0
	for i := range size {
		if b.gVar[i] >= 0 {
			size[i]++
		}
		if b.xVar[i] >= 0 {
			size[i]++
		}
		total += size[i]
	}
	coefs := make([][]lp.Coef, len(g.Vertices))
	backing := make([]lp.Coef, total)
	for i, n := range size {
		coefs[i], backing = backing[:0:n], backing[n:]
	}
	for j := range g.Edges {
		coefs[to[j]] = append(coefs[to[j]], lp.Coef{Var: j, Value: 1})
		coefs[from[j]] = append(coefs[from[j]], lp.Coef{Var: j, Value: -1 / (1 - g.Edges[j].Loss)})
	}
	for i, v := range g.Vertices {
		if b.gVar[i] >= 0 {
			coefs[i] = append(coefs[i], lp.Coef{Var: b.gVar[i], Value: 1})
		}
		if b.xVar[i] >= 0 {
			coefs[i] = append(coefs[i], lp.Coef{Var: b.xVar[i], Value: -1})
		}
		if len(coefs[i]) == 0 {
			// Isolated vertex: no constraint needed; mark row absent.
			b.consRow[i] = -1
			continue
		}
		b.consRow[i] = p.AddConstraint(lp.Constraint{
			Coefs: coefs[i], Sense: lp.EQ, RHS: 0, Name: "cons:" + v.ID,
		})
	}
	return p
}

func (b *builder) result(sol *lp.Solution) *Result {
	nE, nV := len(b.g.Edges), len(b.g.Vertices)
	vals := make([]float64, nE+3*nV)
	r := &Result{
		Welfare:      -sol.Objective,
		Flow:         sol.X[:nE:nE],
		CapacityRent: vals[:nE:nE],
		Gen:          vals[nE : nE+nV : nE+nV],
		Load:         vals[nE+nV : nE+2*nV : nE+2*nV],
		Price:        vals[nE+2*nV:],
		Iterations:   sol.Iterations,
		Basis:        sol.Basis(),
		WarmStarted:  sol.WarmStarted,
	}
	for j := range r.CapacityRent {
		// The LP minimizes; a binding capacity bound has BoundDual ≤ 0
		// (relaxing it lowers cost, i.e. raises welfare). Report the
		// rent as a welfare gain: −dual ≥ 0.
		if bd := sol.BoundDuals[j]; bd != 0 {
			r.CapacityRent[j] = -bd
		}
	}
	for i := 0; i < nV; i++ {
		if b.gVar[i] >= 0 {
			r.Gen[i] = sol.X[b.gVar[i]]
		}
		if b.xVar[i] >= 0 {
			r.Load[i] = sol.X[b.xVar[i]]
		}
		if b.consRow[i] >= 0 {
			// The conservation row is (inflow + gen − outdrawn − load
			// = 0) and the LP minimizes −welfare. One free unit
			// *appearing* at v shifts the RHS to −1, changing minimal
			// cost by −dual, i.e. changing welfare by +dual. Hence
			// λ(v) = dual directly.
			r.Price[i] = sol.Duals[b.consRow[i]]
		}
	}
	return r
}

// Served reports the total demand served across all sinks, summed in
// vertex order.
func (r *Result) Served() float64 {
	t := 0.0
	for _, x := range r.Load {
		t += x
	}
	return t
}

// SpareCapacityFraction estimates the system's spare generating headroom:
// 1 − (total injection / total supply), the injection summed in vertex
// order. The paper tunes its model to ~15%.
func SpareCapacityFraction(g *graph.Graph, r *Result) float64 {
	supply := g.TotalSupply()
	if supply == 0 {
		return 0
	}
	used := 0.0
	for _, gen := range r.Gen {
		used += gen
	}
	return 1 - used/supply
}
