//go:build !race

// The race detector's sync.Pool drops pooled values at random, so under it
// a re-solve clones its scratch graph now and then and the count below
// wanders; the lock runs without it.

package impact

import (
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/rng"
	"cpsguard/internal/westgrid"
)

// maxOutageAllocs bounds the heap allocations of pricing one outage of the
// stressed westgrid without a cache: 30 today (the LP's variant, solution
// and basis, the dispatch result and its one value array, and the
// per-actor profit slice), plus one of headroom. A string-keyed map on the
// per-solve path costs at least two more.
const maxOutageAllocs = 31

// TestOutageDivisionAllocs locks the allocations of the per-outage path
// impact matrices run thousands of times: a pooled edit of the compiled
// graph, SolveEdited warm from the baseline basis, then Share into a
// per-actor slice.
func TestOutageDivisionAllocs(t *testing.T) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	an := &Analysis{Graph: g, Ownership: actors.RandomOwnership(g, 6, rng.New(2))}
	c, base, err := an.baseline("")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"g2e:CA", g.Edges[0].ID, g.Edges[len(g.Edges)/2].ID, g.Edges[len(g.Edges)-1].ID} {
		ps := []Perturbation{Outage(id)}
		n := testing.AllocsPerRun(20, func() {
			if _, err := an.ofCachedEntry(c, "", base, ps, false); err != nil {
				t.Fatal(err)
			}
		})
		if n > maxOutageAllocs {
			t.Errorf("outage %s: %v allocations per re-solve and division, want ≤ %d", id, n, maxOutageAllocs)
		}
	}
}
