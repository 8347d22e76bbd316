// FuzzScreenPrune hammers the soundness contract with hostile inputs:
// seeded grids degraded by fuzz-chosen capacity knockouts (including fully
// disconnected ones), fuzzed ownership maps and fuzz-chosen outage targets.
// The invariants are absolute: screening never panics, a pruned
// contingency that would have beaten the reported worst case — checked by
// comparing against the evaluate-everything oracle — is a failure, and a
// depth-1 target is certified exactly when pruning inherits its outage.
package screen_test

import (
	"reflect"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
	"cpsguard/internal/screen"
	"cpsguard/internal/solvecache"
)

func FuzzScreenPrune(f *testing.F) {
	f.Add(uint8(2), uint64(1), uint8(2), uint64(0xFF), uint64(7))
	f.Add(uint8(3), uint64(9), uint8(1), uint64(0xA5A5), uint64(3))
	f.Add(uint8(2), uint64(4), uint8(2), uint64(0), uint64(1))
	f.Add(uint8(4), uint64(77), uint8(2), uint64(1<<20-1), uint64(99))
	f.Fuzz(func(t *testing.T, regions uint8, gseed uint64, k uint8, mask uint64, ownSeed uint64) {
		g, err := gridgen.Build(gridgen.Config{
			Regions: 2 + int(regions)%3, Seed: gseed, Stress: gseed%2 == 0,
		})
		if err != nil {
			t.Skip() // hostile generator config, not a screening input
		}
		// Degrade the grid: knock out capacities by mask bits. Zeroed
		// corridors can disconnect whole regions — screening must cope.
		for i := range g.Edges {
			if mask&(1<<(uint(i)%48)) != 0 && i%3 == 0 {
				g.Edges[i].Capacity = 0
			}
		}
		if err := g.Validate(); err != nil {
			t.Skip()
		}
		own := actors.RandomOwnership(g, 1+int(ownSeed%5), rng.New(ownSeed))

		// Candidate targets: a mask-chosen subset, capped to keep the
		// lattice small.
		var targets []string
		for i := range g.Edges {
			if mask&(1<<((uint(i)+17)%52)) != 0 {
				targets = append(targets, g.Edges[i].ID)
			}
			if len(targets) == 8 {
				break
			}
		}
		if len(targets) == 0 {
			targets = []string{g.Edges[0].ID}
		}
		an := &impact.Analysis{Graph: g, Ownership: own, Cache: solvecache.New(4096)}
		depth := 1 + int(k)%2
		pr, prErr := screen.Run(screen.Config{Analysis: an, Targets: targets, K: depth, Top: 64})
		or, orErr := screen.Run(screen.Config{Analysis: an, Targets: targets, K: depth, Top: 64, NoPrune: true})
		if (prErr == nil) != (orErr == nil) {
			t.Fatalf("screened err=%v, oracle err=%v — evaluation must be mode-independent", prErr, orErr)
		}
		if prErr != nil {
			return // both rejected the degenerate input gracefully
		}
		if -or.Worst.Delta > -pr.Worst.Delta+1e-9 {
			t.Fatalf("pruned run missed a worse contingency: oracle worst %v (%v) vs screened %v (%v)",
				or.Worst.Targets, or.Worst.Delta, pr.Worst.Targets, pr.Worst.Delta)
		}
		if !reflect.DeepEqual(pr.Worst.Targets, or.Worst.Targets) || pr.Worst.Delta != or.Worst.Delta {
			t.Fatalf("screened worst %v (%v) != oracle %v (%v)",
				pr.Worst.Targets, pr.Worst.Delta, or.Worst.Targets, or.Worst.Delta)
		}
		if pr.Evaluated+pr.Pruned != or.Evaluated {
			t.Fatalf("screened covered %d+%d sets, oracle %d", pr.Evaluated, pr.Pruned, or.Evaluated)
		}
		// Top holds every set (at most 8 + 28 with these caps), so each
		// depth-1 set's Inherited flag is on hand.
		inherited := map[string]bool{}
		for _, c := range pr.Top {
			if len(c.Targets) == 1 {
				inherited[c.Targets[0]] = c.Inherited
			}
		}
		certified := map[string]bool{}
		for _, s := range or.Targets {
			certified[s.ID] = s.CertifiedZero
		}
		for _, s := range pr.Targets {
			if s.CertifiedZero != certified[s.ID] {
				t.Fatalf("target %s: screened CertifiedZero %v, oracle %v", s.ID, s.CertifiedZero, certified[s.ID])
			}
			if got, ok := inherited[s.ID]; !ok || got != s.CertifiedZero {
				t.Fatalf("target %s: CertifiedZero %v, depth-1 Inherited %v (listed %v)", s.ID, s.CertifiedZero, got, ok)
			}
		}
	})
}
