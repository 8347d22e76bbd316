// Package actors implements the multi-actor layer of Section II-B/II-D2:
// assets are owned by independent, profit-seeking companies ("actors"), and
// the system-level social welfare computed by package flow must be divided
// among them under the paper's perfect-competition assumption — each actor
// charges up to the marginal cost of the alternative.
//
// Two profit models are provided:
//
//   - LMPDivision (default): the marginal value λ(v) of energy at every
//     vertex comes from the dispatch LP's conservation duals, and each
//     asset's profit is its merchandising surplus at those prices. This is
//     the textbook competitive (locational-marginal-price) settlement, it
//     needs no extra LP solves, and the per-actor profits sum *exactly* to
//     the social welfare — which makes attack impacts exactly zero-sum
//     against the welfare change, the property the paper's Figure 2 relies
//     on.
//
//   - IterativeDivision: a faithful implementation of the paper's literal
//     4-step relaxation (fix each actor's flows, perturb capacity, grow the
//     profit fraction until flows perturb, iterate to a 0.5% tolerance).
//     It is O(edges) LP re-solves per round and is provided for fidelity
//     and as an ablation baseline; its division converges to approximately
//     the same split as LMPDivision on series-competition cases (each of N
//     actors in series takes ≈1/N of the chain rent).
package actors

import (
	"fmt"
	"math"
	"sort"

	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/lp"
	"cpsguard/internal/rng"
)

// Ownership maps asset (edge) IDs to actor IDs.
type Ownership map[string]string

// Actors returns the distinct actor IDs present, sorted.
func (o Ownership) Actors() []string {
	set := map[string]bool{}
	for _, a := range o {
		set[a] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Assets returns the sorted asset IDs owned by actor a.
func (o Ownership) Assets(actor string) []string {
	var out []string
	for asset, a := range o {
		if a == actor {
			out = append(out, asset)
		}
	}
	sort.Strings(out)
	return out
}

// ActorName formats the canonical actor ID for index i.
func ActorName(i int) string { return fmt.Sprintf("A%02d", i) }

// RandomOwnership assigns each edge of g to one of n actors uniformly at
// random (the paper's 1/N ownership model, Section III-A3), drawing from rs.
// Every actor is guaranteed at least the possibility of zero assets, exactly
// as in the paper (assignments are independent per asset).
func RandomOwnership(g *graph.Graph, n int, rs *rng.Stream) Ownership {
	o := make(Ownership, len(g.Edges))
	for _, id := range g.AssetIDs() {
		o[id] = ActorName(rs.Intn(n))
	}
	return o
}

// ApplyOwnership stamps the ownership onto a copy of the graph's edges
// (Edge.Owner) and returns the copy. Useful for serialization; the analysis
// paths pass Ownership explicitly instead.
func ApplyOwnership(g *graph.Graph, o Ownership) *graph.Graph {
	c := g.Clone()
	for i := range c.Edges {
		if owner, ok := o[c.Edges[i].ID]; ok {
			c.Edges[i].Owner = owner
		}
	}
	return c
}

// VertexOwnership optionally assigns generator and consumer books to actors.
// The paper's assets are edges; generation and retail positions follow the
// owner of the corresponding generation/distribution edge. When a vertex has
// no incident owned edge the surplus accrues to "market" (unowned).
const MarketActor = "market"

// Profits is a per-actor profit statement.
type Profits map[string]float64

// Total sums all actors' profits.
func (p Profits) Total() float64 {
	t := 0.0
	for _, v := range p {
		t += v
	}
	return t
}

// ProfitModel divides a dispatched system's welfare among actors.
type ProfitModel interface {
	// Share adds each actor's profit for graph g dispatched as r into p,
	// indexed like ix.Actors. g is ix's graph or a parameter edit of it:
	// the same vertices and edges in the same order, with capacities,
	// costs and losses that may differ. Implementations must not mutate g.
	Share(ix *Index, g *graph.Graph, r *flow.Result, p []float64) error
	// Name identifies the model in benchmarks and tables.
	Name() string
}

// Divide returns m's per-actor profits for g dispatched as r under o,
// omitting actors with zero profit.
func Divide(m ProfitModel, g *graph.Graph, r *flow.Result, o Ownership) (Profits, error) {
	ix := NewIndex(g, o)
	p := make([]float64, len(ix.Actors))
	if err := m.Share(ix, g, r, p); err != nil {
		return nil, err
	}
	return ix.Profits(p), nil
}

// Index lays out one graph and ownership for profit division. It is built
// once and serves every division of the graph's parameter edits: the actor
// slots of a per-actor profit slice, each edge's owner slot and endpoint
// vertices, and each vertex's inbound and outbound edges in edge order.
type Index struct {
	// Actors names the slots: MarketActor, then the owners of the graph's
	// edges in edge order of first appearance.
	Actors   []string
	owner    []int // slot of each edge's owner (MarketActor when unowned)
	from, to []int // endpoint vertices of each edge
	// first[d][v] is vertex v's first inbound (d = 0) or outbound (d = 1)
	// edge and next[d][j] the one after edge j, in edge order; -1 ends.
	first, next [2][]int
}

// NewIndex indexes the valid graph g under ownership o.
func NewIndex(g *graph.Graph, o Ownership) *Index {
	nE := len(g.Edges)
	ix := &Index{Actors: []string{MarketActor}, owner: make([]int, nE), from: make([]int, nE), to: make([]int, nE)}
	slot := map[string]int{MarketActor: 0}
	for j := range g.Edges {
		e := &g.Edges[j]
		a := o[e.ID]
		if a == "" {
			a = MarketActor
		}
		k, ok := slot[a]
		if !ok {
			k = len(ix.Actors)
			slot[a] = k
			ix.Actors = append(ix.Actors, a)
		}
		ix.owner[j], ix.from[j], ix.to[j] = k, g.VertexIndex(e.From), g.VertexIndex(e.To)
	}
	for d, end := range [2][]int{ix.to, ix.from} {
		ix.first[d], ix.next[d] = make([]int, len(g.Vertices)), make([]int, nE)
		for v := range ix.first[d] {
			ix.first[d][v] = -1
		}
		for j := nE - 1; j >= 0; j-- {
			ix.next[d][j], ix.first[d][end[j]] = ix.first[d][end[j]], j
		}
	}
	return ix
}

// Profits keys the nonzero entries of p, a slice laid out by ix, by actor.
func (ix *Index) Profits(p []float64) Profits {
	out := Profits{}
	for k, v := range p {
		if v != 0 {
			out[ix.Actors[k]] = v
		}
	}
	return out
}

// Slice lays p, a statement Profits returned, out by ix.
func (ix *Index) Slice(p Profits) []float64 {
	s := make([]float64, len(ix.Actors))
	for k, a := range ix.Actors {
		s[k] = p[a]
	}
	return s
}

// tie returns the owner slot of vertex v's dominant inbound (in) or
// outbound edge in g: the first in edge order of largest capacity. Reading
// g's capacities, an edit that cuts a dominant edge hands the tie to the
// next-largest. A vertex without such an edge settles to MarketActor.
func (ix *Index) tie(g *graph.Graph, v int, in bool) int {
	d := 1
	if in {
		d = 0
	}
	j, best := -1, -1.0
	for k := ix.first[d][v]; k >= 0; k = ix.next[d][k] {
		if c := g.Edges[k].Capacity; c > best {
			j, best = k, c
		}
	}
	if j < 0 {
		return 0
	}
	return ix.owner[j]
}

// LMPDivision divides welfare by locational-marginal-price settlement.
type LMPDivision struct{}

// Name implements ProfitModel.
func (LMPDivision) Name() string { return "lmp" }

// Share implements ProfitModel. For each edge (u,v) with delivered flow f:
// the owner buys f/(1−l) at λ(u) and sells f at λ(v), paying transport cost
// a·f. Generator surplus (λ−cost)·g goes to the owner of the generation
// edge leaving the generator vertex; consumer surplus (price−λ)·x goes to
// the owner of the distribution edge entering the load vertex. The shares
// sum exactly to r.Welfare.
func (LMPDivision) Share(ix *Index, g *graph.Graph, r *flow.Result, p []float64) error {
	for j := range g.Edges {
		e := &g.Edges[j]
		f := r.Flow[j]
		lamU, lamV := r.Price[ix.from[j]], r.Price[ix.to[j]]
		surplus := f*lamV - f/(1-e.Loss)*lamU - e.Cost*f
		p[ix.owner[j]] += surplus
	}
	// Generator surplus: attribute to the owner of the highest-capacity
	// outbound edge of the generating vertex (its "generation tie").
	for i := range g.Vertices {
		v := &g.Vertices[i]
		if gen := r.Gen[i]; gen > 0 {
			surplus := gen * (r.Price[i] - v.SupplyCost)
			p[ix.tie(g, i, false)] += surplus
		}
		if load := r.Load[i]; load > 0 {
			surplus := load * (v.Price - r.Price[i])
			p[ix.tie(g, i, true)] += surplus
		}
	}
	return nil
}

// IterativeDivision implements the paper's literal marginal-cost relaxation.
// The paper's series-sharing loop ("repeat 1–3 for each actor until d(u)
// converges within a tolerance (0.5%)") converges to proportional splitting
// of each chain's rent, which Share computes in closed form rather than by
// iteration — the 0.5% tolerance is therefore met exactly.
type IterativeDivision struct {
	// Delta is the capacity decrement used to probe marginal cost
	// (default 1 unit, per the paper's "reducing the capacity of each
	// positive-flow edge by one unit").
	Delta float64
}

// Name implements ProfitModel.
func (IterativeDivision) Name() string { return "iterative" }

// Share implements ProfitModel following Section II-D2's two code blocks:
//
//  1. Measure the marginal cost of each positive-flow edge by re-solving
//     the dispatch with that edge's capacity reduced by Delta, every other
//     flow free to re-optimize. The edge's claimable rent per unit is
//     (welfare drop)/Delta.
//  2. Actors in series would each claim the same downstream marginal cost;
//     the shares are therefore normalized iteratively (profit fractions
//     grown until the next actor's share is perturbed) which converges to
//     proportional splitting of each chain's rent — implemented directly as
//     proportional normalization so each series chain's total claimed rent
//     equals the chain rent, giving each of N series actors ≈1/N.
//
// The residual between claimed rents and total welfare (consumer/producer
// surplus at non-marginal terminals) is settled to the terminal owners as in
// LMPDivision. Every sum runs in edge or vertex order, so repeated calls
// agree bit for bit.
func (d IterativeDivision) Share(ix *Index, g *graph.Graph, r *flow.Result, p []float64) error {
	const tol = 1e-9
	delta := d.Delta
	if delta <= 0 {
		delta = 1
	}
	// Marginal cost per positive-flow edge via capacity probing: each probe
	// is a capacity edit of one clone, re-solved warm from r's basis.
	disp, err := flow.Compile(g)
	if err != nil {
		return fmt.Errorf("actors: iterative division: %w", err)
	}
	probe := g.Clone()
	opts := lp.Options{WarmStart: r.Basis}
	rent := make([]float64, len(g.Edges)) // per-unit rent claimed by each edge
	for j, f := range r.Flow {
		if f > tol {
			dec := math.Min(delta, f)
			probe.Edges[j].Capacity = f - dec // bind at reduced flow
			pr, err := disp.SolveEdited(probe, opts)
			probe.Edges[j].Capacity = g.Edges[j].Capacity
			if err != nil {
				return fmt.Errorf("actors: marginal probe on %s: %w", g.Edges[j].ID, err)
			}
			rent[j] = math.Max(r.Welfare-pr.Welfare, 0) / dec
		}
	}
	// Series normalization: walk maximal chains of consecutive
	// positive-flow edges (hub in/out degree 1 in the flow-carrying
	// subgraph) and split each chain's maximum rent proportionally.
	for _, chain := range ix.flowChains(r) {
		if len(chain) < 2 {
			continue
		}
		// The downstream marginal cost is claimed by every member;
		// total claimable is the max, split it 1/N-proportionally to
		// the raw claims (equal claims → exactly 1/N each).
		maxRent, sumRent := 0.0, 0.0
		for _, j := range chain {
			if rent[j] > maxRent {
				maxRent = rent[j]
			}
			sumRent += rent[j]
		}
		if sumRent <= maxRent || sumRent == 0 {
			continue // no over-claiming
		}
		scale := maxRent / sumRent
		for _, j := range chain {
			rent[j] *= scale
		}
	}

	claimed, claimants := 0.0, 0
	claims := make([]bool, len(p))
	for j, f := range r.Flow {
		if f > tol {
			k := ix.owner[j]
			v := rent[j] * f
			p[k] += v
			claimed += v
			if !claims[k] {
				claims[k] = true
				claimants++
			}
		}
	}
	// Settle the residual welfare to terminal owners proportionally to
	// their terminal surpluses at marginal prices (as in LMP).
	residual := r.Welfare - claimed
	term := make([]float64, len(p))
	totalTerm := 0.0
	for i := range g.Vertices {
		v := &g.Vertices[i]
		if gen := r.Gen[i]; gen > 0 {
			if s := gen * (r.Price[i] - v.SupplyCost); s > 0 {
				term[ix.tie(g, i, false)] += s
				totalTerm += s
			}
		}
		if load := r.Load[i]; load > 0 {
			if s := load * (v.Price - r.Price[i]); s > 0 {
				term[ix.tie(g, i, true)] += s
				totalTerm += s
			}
		}
	}
	switch {
	case totalTerm > 0:
		for k, s := range term {
			if s > 0 {
				p[k] += residual * s / totalTerm
			}
		}
	case claimants > 0:
		// Degenerate: spread residual over claimants proportionally.
		for k, c := range claims {
			if c {
				p[k] += residual / float64(claimants)
			}
		}
	case residual != 0:
		p[0] += residual // MarketActor
	}
	return nil
}

// flowChains extracts maximal series chains of flow-carrying edges, as
// edge indices: runs of edges e1→e2→… where each interior vertex has
// exactly one flow-carrying inbound and one flow-carrying outbound edge and
// no terminal activity.
func (ix *Index) flowChains(r *flow.Result) [][]int {
	const tol = 1e-9
	nIn, nOut := make([]int, len(ix.first[0])), make([]int, len(ix.first[1]))
	next := make([]int, len(ix.first[1])) // a flow-carrying outbound edge
	for j, f := range r.Flow {
		if f > tol {
			nIn[ix.to[j]]++
			nOut[ix.from[j]]++
			next[ix.from[j]] = j
		}
	}
	interior := func(v int) bool {
		return nIn[v] == 1 && nOut[v] == 1 && r.Gen[v] <= tol && r.Load[v] <= tol
	}
	var chains [][]int
	seen := make([]bool, len(r.Flow))
	for j, f := range r.Flow {
		// Only start at a chain head: From is not interior.
		if f <= tol || seen[j] || interior(ix.from[j]) {
			continue
		}
		chain := []int{j}
		seen[j] = true
		for cur := ix.to[j]; interior(cur); cur = ix.to[next[cur]] {
			if seen[next[cur]] {
				break
			}
			chain = append(chain, next[cur])
			seen[next[cur]] = true
		}
		chains = append(chains, chain)
	}
	return chains
}
