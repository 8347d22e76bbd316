package lp_test

import (
	"math"
	"sync"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/impact"
	"cpsguard/internal/lp"
	"cpsguard/internal/westgrid"
)

// sameSolution fails t unless got and want agree bit for bit on everything
// a warm solve returns.
func sameSolution(t *testing.T, label string, got, want *lp.Solution) {
	t.Helper()
	if got.Status != want.Status || got.Iterations != want.Iterations || got.WarmStarted != want.WarmStarted {
		t.Fatalf("%s: %v after %d pivots (warm %v), want %v after %d (warm %v)", label,
			got.Status, got.Iterations, got.WarmStarted, want.Status, want.Iterations, want.WarmStarted)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: objective %v, want %v", label, got.Objective, want.Objective)
	}
	for _, v := range []struct {
		name      string
		got, want []float64
	}{{"X", got.X, want.X}, {"Duals", got.Duals, want.Duals}, {"BoundDuals", got.BoundDuals, want.BoundDuals}} {
		if len(v.got) != len(v.want) {
			t.Fatalf("%s: %d %s, want %d", label, len(v.got), v.name, len(v.want))
		}
		for i, x := range v.got {
			if math.Float64bits(x) != math.Float64bits(v.want[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", label, v.name, i, x, v.want[i])
			}
		}
	}
}

// warmSolve solves p warm from b.
func warmSolve(t *testing.T, p *lp.Problem, b *lp.Basis) *lp.Solution {
	t.Helper()
	sol, err := p.SolveOpts(lp.Options{WarmStart: b})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.WarmStarted {
		t.Fatalf("%s: warm solve fell back to the cold path", p.Name())
	}
	return sol
}

// outage is the baseline LP p0 with edge j's flow (LP variable j) cut to
// zero.
func outage(p0 *lp.Problem, j int) *lp.Problem {
	p := p0.Variant()
	p.SetUpper(j, 0)
	return p
}

// nationalGrid is the 64-region national grid the sparse kernel solves.
func nationalGrid(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gridgen.Build(gridgen.Config{Regions: 64, Seed: 3, Tier: gridgen.TierNational, Stress: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWarmFactorBitIdentical holds a warm solve through a basis whose
// factorization is cached to one through an uncached copy of it, bit for
// bit: every outage of the stressed westgrid (dense kernel) and, outside
// -short, 64 outages of the national grid (sparse kernel).
func TestWarmFactorBitIdentical(t *testing.T) {
	check := func(name string, g *graph.Graph, edges []int) {
		p0, sol0 := baselineSolve(t, &impact.Analysis{Graph: g, Ownership: actors.Ownership{}})
		shared := sol0.Basis()
		for _, j := range edges {
			p := outage(p0, j)
			sameSolution(t, name+" "+g.Edges[j].ID,
				warmSolve(t, p, shared), warmSolve(t, p, lp.UncachedCopy(shared)))
		}
		if dense, sparse := lp.CachedFactors(shared); dense == sparse {
			t.Errorf("%s: cached dense %v, sparse %v; want exactly one", name, dense, sparse)
		}
	}
	g := westgrid.Build(westgrid.Options{Stress: true})
	check("westgrid_stressed", g, spread(len(g.Edges), len(g.Edges)))
	if !testing.Short() {
		g = nationalGrid(t)
		check("national", g, spread(len(g.Edges), 64))
	}
}

// spread returns k edge indices spread evenly over n edges.
func spread(n, k int) []int {
	edges := make([]int, k)
	for i := range edges {
		edges[i] = i * n / k
	}
	return edges
}

// TestWarmFactorCostEditReprices builds the shared factorization under the
// baseline costs, then re-solves cost edits through it: each must price its
// own costs, not copy the cached reduced-cost row, and so agree bit for bit
// with a solve whose factorization was built under the edited costs.
func TestWarmFactorCostEditReprices(t *testing.T) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	p0, sol0 := baselineSolve(t, &impact.Analysis{Graph: g, Ownership: actors.Ownership{}})
	shared := sol0.Basis()
	warmSolve(t, outage(p0, 0), shared) // cache the factorization under the baseline costs
	moved := 0
	for j := range g.Edges {
		if sol0.X[j] == 0 {
			continue
		}
		p := p0.Variant()
		p.SetCost(j, p0.Cost(j)+1000)
		got := warmSolve(t, p, shared)
		sameSolution(t, "cost edit "+g.Edges[j].ID, got, warmSolve(t, p, lp.UncachedCopy(shared)))
		if err := lp.CheckKKT(p, got); err != nil {
			t.Fatalf("cost edit %s: %v", g.Edges[j].ID, err)
		}
		if got.Iterations > 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no cost edit moved the optimum; the test cannot tell a stale reduced-cost row")
	}
}

// TestWarmFactorLossEditRefactors: a loss edit compiles new constraint
// rows, so the baseline basis meets a matrix other than its own and is
// factored afresh without caching anything; a capacity edit keeps the
// rows and caches the factorization.
func TestWarmFactorLossEditRefactors(t *testing.T) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	d, err := flow.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := d.Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ge := g.Clone()
	ge.Edges[0].Loss += 0.01
	r, err := d.SolveEdited(ge, lp.Options{WarmStart: r0.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if !r.WarmStarted {
		t.Fatal("loss edit fell back to the cold path")
	}
	if dense, sparse := lp.CachedFactors(r0.Basis); dense || sparse {
		t.Fatal("a loss edit cached a factorization of another matrix")
	}
	ge = g.Clone()
	ge.Edges[0].Capacity = 0
	if _, err := d.SolveEdited(ge, lp.Options{WarmStart: r0.Basis}); err != nil {
		t.Fatal(err)
	}
	if dense, _ := lp.CachedFactors(r0.Basis); !dense {
		t.Fatal("a capacity edit did not cache the factorization")
	}
}

// TestWarmFactorConcurrent warm-solves outages from one shared basis on
// four goroutines at once, each in its own order. Every solve must match a
// serial run bit for bit, and the sparse kernel must factor the shared
// basis exactly once.
func TestWarmFactorConcurrent(t *testing.T) {
	const workers = 4
	run := func(t *testing.T, g *graph.Graph, edges []int) {
		p0, sol0 := baselineSolve(t, &impact.Analysis{Graph: g, Ownership: actors.Ownership{}})
		serialBasis := lp.UncachedCopy(sol0.Basis())
		want := make([]*lp.Solution, len(edges))
		for i, j := range edges {
			want[i] = warmSolve(t, outage(p0, j), serialBasis)
		}
		shared := lp.UncachedCopy(sol0.Basis())
		factors, triggers := lp.RevisedFactorizations(), lp.RevisedRefactorTriggers()
		got := make([][]*lp.Solution, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range got {
			got[w] = make([]*lp.Solution, len(edges))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range edges {
					i := (k + w*len(edges)/workers) % len(edges)
					sol, err := outage(p0, edges[i]).SolveOpts(lp.Options{WarmStart: shared})
					if err != nil {
						errs[w] = err
						return
					}
					got[w][i] = sol
				}
			}()
		}
		wg.Wait()
		for w := range got {
			if errs[w] != nil {
				t.Fatal(errs[w])
			}
			for i, j := range edges {
				sameSolution(t, g.Edges[j].ID, got[w][i], want[i])
			}
		}
		if _, sparse := lp.CachedFactors(shared); sparse {
			warm := lp.RevisedFactorizations() - factors - (lp.RevisedRefactorTriggers() - triggers)
			if warm != 1 {
				t.Errorf("%d warm factorizations of the shared basis, want 1", warm)
			}
		}
	}
	t.Run("dense", func(t *testing.T) {
		g := westgrid.Build(westgrid.Options{Stress: true})
		run(t, g, spread(len(g.Edges), len(g.Edges)))
	})
	t.Run("sparse", func(t *testing.T) {
		g := nationalGrid(t)
		run(t, g, spread(len(g.Edges), 16))
	})
}
