// westernInterconnect: load the paper's six-state gas-electric model
// (Section III-A), compute the full impact matrix under a six-actor random
// ownership, and rank the most damaging — and the most profitable — assets.
//
// Run with:
//
//	go run ./examples/westernInterconnect
package main

import (
	"fmt"
	"log"
	"sort"

	"cpsguard"
)

func main() {
	log.SetFlags(0)

	g := cpsguard.Westgrid(cpsguard.WestgridOptions{Stress: true})
	fmt.Println(g)

	scn := cpsguard.NewScenario(g, 6, 42)
	m, err := scn.Truth()
	if err != nil {
		log.Fatal(err)
	}

	// Rank targets by system damage.
	type ranked struct {
		id     string
		damage float64 // −Δwelfare
		gain   float64 // largest single-actor gain
		winner string
	}
	var rows []ranked
	for j, t := range m.Targets {
		r := ranked{id: t, damage: -m.WelfareDelta[j]}
		for _, a := range m.Actors {
			if v := m.Get(a, t); v > r.gain {
				r.gain = v
				r.winner = a
			}
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].damage > rows[j].damage })

	fmt.Println("\ntop 10 most damaging single-asset attacks:")
	fmt.Printf("  %-18s %14s %14s %8s\n", "asset", "system damage", "best gain", "winner")
	for _, r := range rows[:10] {
		fmt.Printf("  %-18s %14.0f %14.0f %8s\n", r.id, r.damage, r.gain, r.winner)
	}

	sort.Slice(rows, func(i, j int) bool { return rows[i].gain > rows[j].gain })
	fmt.Println("\ntop 5 attacks by single-actor profit (the SA's shopping list):")
	for _, r := range rows[:5] {
		fmt.Printf("  %-18s winner %s gains %14.0f (system loses %.0f)\n",
			r.id, r.winner, r.gain, r.damage)
	}

	gain, loss := m.GainLoss()
	fmt.Printf("\ntotal gains %+.0f, total losses %+.0f (zero-sum against welfare: %+.0f)\n",
		gain, loss, gain+loss)
}
