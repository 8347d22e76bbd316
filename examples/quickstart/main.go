// Quickstart: build a four-node energy system, dispatch it to the social
// welfare optimum, attack a line, and read the per-actor financial impact.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cpsguard"
)

func main() {
	log.SetFlags(0)

	// A cheap and an expensive generator compete to serve one city.
	g := cpsguard.NewGraph("quickstart")
	g.MustAddVertex(cpsguard.Vertex{ID: "hydro", Supply: 100, SupplyCost: 5})
	g.MustAddVertex(cpsguard.Vertex{ID: "gasplant", Supply: 100, SupplyCost: 40})
	g.MustAddVertex(cpsguard.Vertex{ID: "city", Demand: 120, Price: 100})
	g.MustAddEdge(cpsguard.Edge{
		ID: "hydro-line", From: "hydro", To: "city",
		Capacity: 80, Loss: 0.03, Cost: 2, Kind: cpsguard.KindTransmission,
	})
	g.MustAddEdge(cpsguard.Edge{
		ID: "gas-line", From: "gasplant", To: "city",
		Capacity: 80, Loss: 0.02, Cost: 2, Kind: cpsguard.KindTransmission,
	})

	// 1. Social-welfare dispatch (the paper's Eq. 1–7).
	res, err := cpsguard.Dispatch(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("welfare: %.0f   city price λ = %.1f\n", res.Welfare, res.Price[g.VertexIndex("city")])
	fmt.Printf("flows: hydro-line %.1f, gas-line %.1f\n\n",
		res.Flow[g.EdgeIndex("hydro-line")], res.Flow[g.EdgeIndex("gas-line")])

	// 2. Two actors: H owns the hydro chain, G the gas chain.
	own := cpsguard.Ownership{"hydro-line": "H", "gas-line": "G"}
	an := &cpsguard.ImpactAnalysis{Graph: g, Ownership: own}
	base, _, err := an.Baseline()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline profits: H=%.0f  G=%.0f\n\n", base["H"], base["G"])

	// 3. Attack the hydro line (capacity → 0) and measure the impact.
	deltas, dWelfare, err := an.Of(cpsguard.Outage("hydro-line"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("attack: hydro-line outage")
	fmt.Printf("  system welfare change: %.0f\n", dWelfare)
	fmt.Printf("  impact on H: %+.0f   (owner loses)\n", deltas["H"])
	fmt.Printf("  impact on G: %+.0f   (competitor gains the market)\n", deltas["G"])
}
