//go:build !race

// The race detector's sync.Pool drops pooled values at random, so under it
// a re-solve clones its scratch graph now and then and the count below
// wanders; the lock runs without it.

package impact

import (
	"fmt"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/rng"
	"cpsguard/internal/westgrid"
)

// maxOutageAllocs bounds the heap allocations of pricing one outage of the
// stressed westgrid without a cache: 26 today (the LP's variant, solution
// and basis, the dispatch result and its one value array, and the
// per-actor profit slice), plus one of headroom. A string-keyed map on the
// per-solve path costs at least two more.
const maxOutageAllocs = 27

// maxCarriedAllocs bounds the same for an outage Carries accepts: the
// per-actor profit slice is its only allocation, since it shares the
// baseline result and solves nothing.
const maxCarriedAllocs = 1

// TestOutageDivisionAllocs locks the allocations of the per-outage path
// impact matrices run thousands of times: a pooled edit of the compiled
// graph, SolveEdited warm from the baseline basis (or, for a zero-flow
// edge, the carried baseline result), then Share into a per-actor slice.
func TestOutageDivisionAllocs(t *testing.T) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	an := &Analysis{Graph: g, Ownership: actors.RandomOwnership(g, 6, rng.New(2))}
	c, err := an.compile()
	if err != nil {
		t.Fatal(err)
	}
	r0, err := c.base()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id      string
		carried bool
	}{
		{"g2e:CA", false}, {g.Edges[0].ID, false}, {g.Edges[len(g.Edges)/2].ID, false},
		{"tx:OR-WA", true}, {"pipe:UT-WA", true},
	} {
		ps := []Perturbation{Outage(tc.id)}
		if got := Carries(g, ps, r0.Flow); got != tc.carried {
			t.Fatalf("outage %s: Carries = %v, want %v", tc.id, got, tc.carried)
		}
		want := maxOutageAllocs
		if tc.carried {
			want = maxCarriedAllocs
		}
		n := testing.AllocsPerRun(20, func() {
			if _, _, err := an.priced(c, ps); err != nil {
				t.Fatal(err)
			}
		})
		if n > float64(want) {
			t.Errorf("outage %s: %v allocations per dispatch and division, want ≤ %d", tc.id, n, want)
		}
	}
}

// maxPerturbedAllocs bounds the heap allocations of one noisy view: the view
// and its value slice. It does not grow with the matrix, which a per-actor
// row map would break.
const maxPerturbedAllocs = 2

// TestPerturbedAllocs locks the allocations of the draw that every
// attack-probability sample and every matrix-noise view runs, on a 1×1
// matrix, a dense 40×400 one and the stressed westgrid's outage matrix.
func TestPerturbedAllocs(t *testing.T) {
	dense := func(nA, nT int) *Matrix {
		ids := func(prefix string, n int) []string {
			out := make([]string, n)
			for k := range out {
				out[k] = fmt.Sprintf("%s%04d", prefix, k)
			}
			return out
		}
		m, err := NewMatrix(ids("a", nA), ids("t", nT), func(i, j int) (float64, bool) { return float64(i - j), true })
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for name, m := range map[string]*Matrix{
		"1x1":               dense(1, 1),
		"40x400":            dense(40, 400),
		"westgrid_stressed": truthMatrix(t, westgrid.Build(westgrid.Options{Stress: true})),
	} {
		rs := rng.New(1)
		if n := testing.AllocsPerRun(20, func() { m.Perturbed(0.2, rs) }); n > maxPerturbedAllocs {
			t.Errorf("%s: %v allocations per noisy view, want ≤ %d", name, n, maxPerturbedAllocs)
		}
	}
}
