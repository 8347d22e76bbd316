package impact

// The map-keyed LMP division: the settlement as it was written before
// dispatch results and divisions became index-keyed. Every edge's owner is
// looked up by ID, surpluses accumulate into a Profits map, the tie table is
// rebuilt per call by vertex-ID lookups, and impact deltas are taken map
// against map. No production path uses it. It is the reference
// TestDivisionMatchesReference holds the index-keyed division and impact
// matrix to, bit for bit.

import (
	"math"
	"sort"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/lp"
	"cpsguard/internal/rng"
	"cpsguard/internal/westgrid"
)

// refResult keys a dispatch result by ID, as flow.Result once did.
type refResult struct {
	flow, gen, load, price map[string]float64
}

func keyResult(g *graph.Graph, r *flow.Result) refResult {
	k := refResult{map[string]float64{}, map[string]float64{}, map[string]float64{}, map[string]float64{}}
	for j, e := range g.Edges {
		k.flow[e.ID] = r.Flow[j]
	}
	for i, v := range g.Vertices {
		k.gen[v.ID], k.load[v.ID], k.price[v.ID] = r.Gen[i], r.Load[i], r.Price[i]
	}
	return k
}

// refTies records, per vertex, the dominant inbound and outbound edge: the
// first edge in edge order of largest capacity (-1 when there is none).
type refTies struct {
	g       *graph.Graph
	in, out []int
}

func newRefTies(g *graph.Graph) refTies {
	t := refTies{g: g, in: make([]int, len(g.Vertices)), out: make([]int, len(g.Vertices))}
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

func (t refTies) owner(o actors.Ownership, v int, in bool) string {
	j := t.out[v]
	if in {
		j = t.in[v]
	}
	if j < 0 {
		return actors.MarketActor
	}
	if a, ok := o[t.g.Edges[j].ID]; ok && a != "" {
		return a
	}
	return actors.MarketActor
}

// referenceLMPDivide is the map-keyed LMPDivision.Divide.
func referenceLMPDivide(g *graph.Graph, res *flow.Result, o actors.Ownership) actors.Profits {
	r := keyResult(g, res)
	p := actors.Profits{}
	owner := func(edgeID string) string {
		if a, ok := o[edgeID]; ok && a != "" {
			return a
		}
		return actors.MarketActor
	}
	for _, e := range g.Edges {
		f := r.flow[e.ID]
		lamU, lamV := r.price[e.From], r.price[e.To]
		surplus := f*lamV - f/(1-e.Loss)*lamU - e.Cost*f
		p[owner(e.ID)] += surplus
	}
	t := newRefTies(g)
	for i, v := range g.Vertices {
		if gen := r.gen[v.ID]; gen > 0 {
			surplus := gen * (r.price[v.ID] - v.SupplyCost)
			p[t.owner(o, i, false)] += surplus
		}
		if load := r.load[v.ID]; load > 0 {
			surplus := load * (v.Price - r.price[v.ID])
			p[t.owner(o, i, true)] += surplus
		}
	}
	for a, v := range p {
		if v == 0 {
			delete(p, a)
		}
	}
	return p
}

// referenceDelta is the map-keyed deltaProfits: perturbed − base per actor,
// including actors that vanish from the perturbed division.
func referenceDelta(p, base actors.Profits) actors.Profits {
	delta := actors.Profits{}
	for actor, v := range p {
		delta[actor] = v - base[actor]
	}
	for actor, v := range base {
		if _, ok := p[actor]; !ok {
			delta[actor] = -v
		}
	}
	return delta
}

// sameBits reports whether two statements have the same key set and
// bit-identical values.
func sameBits(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// TestDivisionMatchesReference prices every single-edge outage of the
// stressed westgrid and the 64-region national grid and requires the
// index-keyed LMP division to agree with the map-keyed reference bit for
// bit, in values and key set: the absolute profits of each outage's
// dispatch (the cold baseline's where Carries accepts the outage, a warm
// re-solve elsewhere), divided through the analysis's actor index of the
// unedited graph, and the impact matrix ComputeMatrix builds against the
// reference matrix assembled from reference deltas.
func TestDivisionMatchesReference(t *testing.T) {
	grids := map[string]*graph.Graph{"westgrid_stressed": westgrid.Build(westgrid.Options{Stress: true})}
	if !testing.Short() {
		national, err := gridgen.Build(gridgen.Config{
			Regions: 64, Seed: 3, Tier: gridgen.TierNational, Stress: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		grids["national"] = national
	}
	names := make([]string, 0, len(grids))
	for n := range grids {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		g := grids[name]
		// Six actors, every fifth asset unowned so the market slot carries
		// edge surplus as well as orphaned ties.
		o := actors.RandomOwnership(g, 6, rng.New(9))
		for j, e := range g.Edges {
			if j%5 == 0 {
				delete(o, e.ID)
			}
		}
		an := &Analysis{Graph: g, Ownership: o}
		m, err := an.ComputeMatrix(nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := an.compile()
		if err != nil {
			t.Fatal(err)
		}
		base, err := an.baseline(c)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := c.base()
		if err != nil {
			t.Fatal(err)
		}
		d, err := c.disp()
		if err != nil {
			t.Fatal(err)
		}
		r0, err := d.Solve(lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		refBase := referenceLMPDivide(g, r0, o)
		if got := c.ix.Profits(base.Profits); !sameBits(got, refBase) {
			t.Errorf("%s: baseline profits %v, reference %v", name, got, refBase)
		}
		refIM := map[string]map[string]float64{}
		for _, a := range o.Actors() {
			refIM[a] = map[string]float64{}
		}
		for _, id := range m.Targets {
			gp, err := Apply(g, Outage(id))
			if err != nil {
				t.Fatal(err)
			}
			// An outage Carries accepts keeps the cold baseline optimum.
			r := r0
			if ps := []Perturbation{Outage(id)}; !Carries(g, ps, r0.Flow) {
				if r, err = d.SolveEdited(gp, lp.Options{WarmStart: cold.Basis}); err != nil {
					t.Fatal(err)
				}
			}
			ref := referenceLMPDivide(gp, r, o)
			p := make([]float64, len(c.ix.Actors))
			if err := (actors.LMPDivision{}).Share(c.ix, gp, r, p); err != nil {
				t.Fatal(err)
			}
			if got := c.ix.Profits(p); !sameBits(got, ref) {
				t.Errorf("%s: outage %s: profits %v, reference %v", name, id, got, ref)
			}
			for a, d := range referenceDelta(ref, refBase) {
				if refIM[a] == nil {
					refIM[a] = map[string]float64{}
				}
				refIM[a][id] = d
			}
		}
		im := layout(t, m)
		if len(im) != len(refIM) {
			t.Errorf("%s: matrix has %d actor rows, reference %d", name, len(im), len(refIM))
		}
		for a, row := range refIM {
			if !sameBits(im[a], row) {
				t.Errorf("%s: matrix row %s differs from the reference", name, a)
			}
		}
	}
}
