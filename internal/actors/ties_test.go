package actors

import (
	"reflect"
	"testing"

	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/westgrid"
)

// referenceTie is the tie lookup as first written: a scan of every edge per
// vertex, O(V·E) over a Divide. It returns the ID of vertex id's dominant
// inbound (in) or outbound edge, "" when it has none. It is the reference
// TestTiesMatchReference holds Index.tie to.
func referenceTie(g *graph.Graph, id string, in bool) string {
	best := ""
	bestCap := -1.0
	var idxs []int
	if in {
		idxs = g.InEdges(id)
	} else {
		idxs = g.OutEdges(id)
	}
	for _, i := range idxs {
		e := g.Edges[i]
		if e.Capacity > bestCap {
			bestCap = e.Capacity
			best = e.ID
		}
	}
	return best
}

// referenceTieOwner is the owner of referenceTie's edge, MarketActor when
// there is none or it is unowned.
func referenceTieOwner(g *graph.Graph, o Ownership, id string, in bool) string {
	best := referenceTie(g, id, in)
	if best == "" {
		return MarketActor
	}
	if a, ok := o[best]; ok && a != "" {
		return a
	}
	return MarketActor
}

// TestTiesMatchReference requires the index's tie lookup to name the same
// owner as the per-vertex edge scan for every vertex, inbound and outbound,
// on the stressed westgrid and the 64-region national grid, and on edits of
// them: for each vertex, the graph with its dominant inbound and outbound
// edges cut to zero capacity, read through the index of the unedited graph.
func TestTiesMatchReference(t *testing.T) {
	national, err := gridgen.Build(gridgen.Config{
		Regions: 64, Seed: 3, Tier: gridgen.TierNational, Stress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{
		"westgrid_stressed": westgrid.Build(westgrid.Options{Stress: true}),
		"national":          national,
	} {
		// Each edge its own actor (every seventh unowned), so equal owners
		// mean equal dominant edges.
		o := Ownership{}
		for j, e := range g.Edges {
			if j%7 != 0 {
				o[e.ID] = e.ID
			}
		}
		ix := NewIndex(g, o)
		var got, want []string
		for i, v := range g.Vertices {
			for _, in := range []bool{true, false} {
				got = append(got, ix.Actors[ix.tie(g, i, in)])
				want = append(want, referenceTieOwner(g, o, v.ID, in))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: tie owners differ from the per-vertex scan", name)
		}
		moved := 0
		for i, v := range g.Vertices {
			ge := g.Clone()
			for _, in := range []bool{true, false} {
				if id := referenceTie(g, v.ID, in); id != "" {
					ge.Edge(id).Capacity = 0
				}
			}
			for _, in := range []bool{true, false} {
				got, want := ix.Actors[ix.tie(ge, i, in)], referenceTieOwner(ge, o, v.ID, in)
				if got != want {
					t.Errorf("%s: %s with its dominant edges cut: tie owner (in=%v) %s, reference %s",
						name, v.ID, in, got, want)
				}
				if want != referenceTieOwner(g, o, v.ID, in) {
					moved++
				}
			}
		}
		if moved == 0 {
			t.Errorf("%s: cutting dominant edges moved no tie; the edited check is vacuous", name)
		}
	}
}
