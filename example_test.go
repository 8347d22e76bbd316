package cpsguard_test

import (
	"fmt"
	"sort"

	"cpsguard"
)

// twoChainSystem builds the canonical competitor-elimination setup used
// throughout the examples: two generation chains into one city.
func twoChainSystem() *cpsguard.Graph {
	g := cpsguard.NewGraph("example")
	g.MustAddVertex(cpsguard.Vertex{ID: "cheap", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(cpsguard.Vertex{ID: "dear", Supply: 100, SupplyCost: 3})
	g.MustAddVertex(cpsguard.Vertex{ID: "city", Demand: 120, Price: 10})
	g.MustAddEdge(cpsguard.Edge{ID: "lineA", From: "cheap", To: "city", Capacity: 80})
	g.MustAddEdge(cpsguard.Edge{ID: "lineB", From: "dear", To: "city", Capacity: 80})
	return g
}

// ExampleDispatch shows the social-welfare dispatch of Eqs. 1–7.
func ExampleDispatch() {
	g := twoChainSystem()
	res, err := cpsguard.Dispatch(g)
	if err != nil {
		panic(err)
	}
	fmt.Printf("welfare: %.0f\n", res.Welfare)
	fmt.Printf("city price: %.0f\n", res.Price[g.VertexIndex("city")])
	fmt.Printf("flows: A=%.0f B=%.0f\n", res.Flow[g.EdgeIndex("lineA")], res.Flow[g.EdgeIndex("lineB")])
	// Output:
	// welfare: 920
	// city price: 3
	// flows: A=80 B=40
}

// ExampleImpactAnalysis_Of measures an attack's per-actor impact
// (Section II-D3): the attacked owner loses, the competitor gains.
func ExampleImpactAnalysis_Of() {
	an := &cpsguard.ImpactAnalysis{
		Graph:     twoChainSystem(),
		Ownership: cpsguard.Ownership{"lineA": "A", "lineB": "B"},
	}
	deltas, dWelfare, err := an.Of(cpsguard.Outage("lineA"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("system welfare change: %.0f\n", dWelfare)
	fmt.Printf("A (attacked): %.0f\n", deltas["A"])
	fmt.Printf("B (rival):    %.0f\n", deltas["B"])
	// Output:
	// system welfare change: -360
	// A (attacked): -920
	// B (rival):    560
}

// ExampleSolveAdversary shows the strategic adversary of Eq. 8–11 choosing
// targets and actor positions.
func ExampleSolveAdversary() {
	an := &cpsguard.ImpactAnalysis{
		Graph:     twoChainSystem(),
		Ownership: cpsguard.Ownership{"lineA": "A", "lineB": "B"},
	}
	m, err := an.ComputeMatrix(nil)
	if err != nil {
		panic(err)
	}
	plan, err := cpsguard.SolveAdversary(cpsguard.AdversaryConfig{
		Matrix:  m,
		Targets: cpsguard.UniformTargets([]string{"lineA", "lineB"}, 1, 1),
		Budget:  1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("targets:", plan.Targets)
	fmt.Println("captured actors:", plan.Actors)
	fmt.Printf("anticipated profit: %.0f\n", plan.Anticipated)
	// Output:
	// targets: [lineA]
	// captured actors: [B]
	// anticipated profit: 559
}

// ExamplePlayRound runs one full attack/defense round with perfect
// knowledge on both sides.
func ExamplePlayRound() {
	scn := cpsguard.NewScenario(twoChainSystem(), 2, 7)
	res, err := cpsguard.PlayRound(scn, cpsguard.GameConfig{
		AttackBudget:          1,
		DefenseBudgetPerActor: 2,
		PaSamples:             4,
		Seed:                  1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("defense never helps the adversary: %v\n",
		res.RealizedDefended <= res.RealizedUndefended)
	fmt.Printf("effectiveness is non-negative: %v\n", res.Effectiveness >= 0)
	// Output:
	// defense never helps the adversary: true
	// effectiveness is non-negative: true
}

// ExampleGraph_AssetIDs shows that edges are the attackable assets.
func ExampleGraph_AssetIDs() {
	ids := twoChainSystem().AssetIDs()
	sort.Strings(ids)
	fmt.Println(ids)
	// Output:
	// [lineA lineB]
}

// ExampleRandomOwnership shows the paper's 1/N ownership model.
func ExampleRandomOwnership() {
	g := twoChainSystem()
	o := cpsguard.RandomOwnership(g, 2, 42)
	fmt.Println("assets assigned:", len(o))
	for _, id := range g.AssetIDs() {
		if o[id] == "" {
			fmt.Println("unassigned asset!")
		}
	}
	// Output:
	// assets assigned: 2
}
