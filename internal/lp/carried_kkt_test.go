package lp_test

import (
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/impact"
	"cpsguard/internal/lp"
	"cpsguard/internal/westgrid"
)

// baselineSolve dispatches an's baseline and returns the LP the dispatch
// solved and its solution: the problem and solution every perturbation
// impact.Carries accepts reuses.
func baselineSolve(t *testing.T, an *impact.Analysis) (*lp.Problem, *lp.Solution) {
	t.Helper()
	var p0 *lp.Problem
	var sol0 *lp.Solution
	restore := lp.ObserveSolves(func(p *lp.Problem, sol *lp.Solution) { p0, sol0 = p, sol })
	_, _, err := an.Baseline()
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if sol0 == nil {
		t.Fatal("the baseline dispatch solved no LP")
	}
	return p0, sol0
}

// TestCarriedOutagesCertified certifies the rule impact matrices use to
// skip a solve: for every single-edge outage impact.Carries accepts on the
// stressed and unstressed westgrid and the 64-region national grid, the
// baseline's solution passes the KKT certificate on the edited LP, and a
// warm re-solve from the baseline basis takes no pivot.
func TestCarriedOutagesCertified(t *testing.T) {
	national, err := gridgen.Build(gridgen.Config{
		Regions: 64, Seed: 3, Tier: gridgen.TierNational, Stress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	grids := []struct {
		name string
		g    *graph.Graph
	}{
		{"westgrid_stressed", westgrid.Build(westgrid.Options{Stress: true})},
		{"westgrid", westgrid.Build(westgrid.Options{})},
		{"national", national},
	}
	for _, tc := range grids {
		an := &impact.Analysis{Graph: tc.g, Ownership: actors.Ownership{}}
		p0, sol0 := baselineSolve(t, an)
		_, r0, err := an.Baseline()
		if err != nil {
			t.Fatal(err)
		}
		carried := 0
		for j, e := range tc.g.Edges {
			if !impact.Carries(tc.g, []impact.Perturbation{impact.Outage(e.ID)}, r0.Flow) {
				continue
			}
			carried++
			// Edge j's flow is the dispatch LP's variable j.
			pe := p0.Variant()
			pe.SetUpper(j, 0)
			if err := lp.CheckKKT(pe, sol0); err != nil {
				t.Errorf("%s: outage %s: the baseline solution fails the certificate: %v", tc.name, e.ID, err)
			}
			warm, err := pe.SolveOpts(lp.Options{WarmStart: sol0.Basis()})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != lp.Optimal || warm.Iterations != 0 {
				t.Errorf("%s: outage %s: warm re-solve %v after %d pivots, want optimal after 0",
					tc.name, e.ID, warm.Status, warm.Iterations)
			}
		}
		t.Logf("%s: %d of %d outages carried", tc.name, carried, len(tc.g.Edges))
		if carried == 0 {
			t.Errorf("%s: no outage carried", tc.name)
		}
	}
}

// TestRaisedZeroCapacityNotCarried is the rule's second clause: an edge
// held at capacity zero carries no flow, but its capacity may carry a rent,
// so raising that capacity moves the optimum. Here a cut cheap corridor
// leaves the city served by the dear one; reopening it must not be
// carried, and the baseline solution indeed fails the certificate there.
func TestRaisedZeroCapacityNotCarried(t *testing.T) {
	g := graph.New("reopened")
	g.MustAddVertex(graph.Vertex{ID: "cheap", Supply: 100, SupplyCost: 1})
	g.MustAddVertex(graph.Vertex{ID: "dear", Supply: 100, SupplyCost: 5})
	g.MustAddVertex(graph.Vertex{ID: "city", Demand: 50, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "cut", From: "cheap", To: "city", Capacity: 0})
	g.MustAddEdge(graph.Edge{ID: "open", From: "dear", To: "city", Capacity: 100})
	an := &impact.Analysis{Graph: g, Ownership: actors.Ownership{}}
	p0, sol0 := baselineSolve(t, an)
	_, r0, err := an.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if r0.Flow[0] != 0 || r0.CapacityRent[0] <= 0 {
		t.Fatalf("cut corridor: flow %v, rent %v; want no flow and a positive rent", r0.Flow[0], r0.CapacityRent[0])
	}
	reopen := []impact.Perturbation{{EdgeID: "cut", Field: impact.Capacity, Value: 50}}
	if impact.Carries(g, reopen, r0.Flow) {
		t.Fatal("raising a zero capacity was carried")
	}
	pe := p0.Variant()
	pe.SetUpper(0, 50)
	if lp.CheckKKT(pe, sol0) == nil {
		t.Fatal("the baseline solution certifies the reopened corridor; the case no longer tests the clause")
	}
	if !impact.Carries(g, []impact.Perturbation{impact.Outage("cut")}, r0.Flow) {
		t.Error("leaving a zero capacity at zero was not carried")
	}
}
