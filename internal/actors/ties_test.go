package actors

import (
	"reflect"
	"testing"

	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/westgrid"
)

// referenceTieOwner is the tie lookup as first written: a scan of every
// edge per vertex, O(V·E) over a Divide. It is the reference
// TestTiesMatchReference holds the tie table to.
func referenceTieOwner(g *graph.Graph, o Ownership, id string, in bool) string {
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
	if best == "" {
		return MarketActor
	}
	if a, ok := o[best]; ok && a != "" {
		return a
	}
	return MarketActor
}

// TestTiesMatchReference requires the one-pass tie table to name the same
// owner as the per-vertex edge scan for every vertex, inbound and
// outbound, on the stressed westgrid and the 64-region national grid.
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
		tt := newTies(g)
		var got, want []string
		for i, v := range g.Vertices {
			for _, in := range []bool{true, false} {
				got = append(got, tt.owner(o, i, in))
				want = append(want, referenceTieOwner(g, o, v.ID, in))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: tie owners differ from the per-vertex scan", name)
		}
	}
}
