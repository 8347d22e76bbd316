package flow

import (
	"reflect"
	"testing"

	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/lp"
	"cpsguard/internal/westgrid"
)

// referenceBuild is the dispatch LP builder as first written: every
// conservation row found by scanning all edges for its vertex, O(V·E). It
// is the reference TestBuildOrderMatchesReference holds builder.build to.
func referenceBuild(b *builder, fixed map[string]float64) *lp.Problem {
	g := b.g
	p := lp.NewProblem()
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
	for i, v := range g.Vertices {
		var coefs []lp.Coef
		for j, e := range g.Edges {
			if e.To == v.ID {
				coefs = append(coefs, lp.Coef{Var: j, Value: 1})
			}
			if e.From == v.ID {
				coefs = append(coefs, lp.Coef{Var: j, Value: -1 / (1 - e.Loss)})
			}
		}
		if b.gVar[i] >= 0 {
			coefs = append(coefs, lp.Coef{Var: b.gVar[i], Value: 1})
		}
		if b.xVar[i] >= 0 {
			coefs = append(coefs, lp.Coef{Var: b.xVar[i], Value: -1})
		}
		if len(coefs) == 0 {
			b.consRow[i] = -1
			continue
		}
		b.consRow[i] = p.AddConstraint(lp.Constraint{
			Coefs: coefs, Sense: lp.EQ, RHS: 0, Name: "cons:" + v.ID,
		})
	}
	for id, fx := range fixed {
		idx := g.EdgeIndex(id)
		if idx < 0 {
			continue
		}
		p.AddConstraint(lp.Constraint{
			Coefs: []lp.Coef{{Var: idx, Value: 1}},
			Sense: lp.EQ, RHS: fx, Name: "fix:" + id,
		})
	}
	return p
}

// TestBuildOrderMatchesReference locks the dispatch LP byte for byte: the
// two-pass builder must produce the reference builder's variables,
// coefficients and row order, and the same index maps, on the stressed
// westgrid and the 64-region national grid. Any reordering would move the
// simplex's tie-breaks and with them the golden outputs.
func TestBuildOrderMatchesReference(t *testing.T) {
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
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fixed := map[string]float64{g.Edges[0].ID: 1}
		got, want := newBuilder(g), newBuilder(g)
		gotP, wantP := got.build(fixed), referenceBuild(want, fixed)
		if !reflect.DeepEqual(gotP, wantP) {
			t.Errorf("%s: dispatch LP differs from the reference build", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: builder index maps differ from the reference build", name)
		}
	}
}
