// Carried-pricing battery for the dense bounded simplex.
//
// The bounded tableau prices from a reduced-cost row it carries through
// each pivot instead of recomputing it, and re-prices from scratch before
// it reports Optimal. These tests check both halves: the carried row tracks
// a fresh pricing pass after every pivot, and a corrupted carried row costs
// pivots but never the answer. Two more tests pin the pivot paths of both
// kernels.
package lp_test

import (
	"math"
	"sort"
	"testing"

	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/lp"
	"cpsguard/internal/telemetry"
)

// pricingCase is one solve of the carried-pricing battery. run returns the
// solve's observables flattened in a fixed order (status first), and
// whether it finished on the warm path.
type pricingCase struct {
	label string
	run   func() (obs []float64, warm bool, err error)
}

// solutionObs flattens every observable of an LP solution.
func solutionObs(sol *lp.Solution) []float64 {
	obs := []float64{float64(sol.Status), sol.Objective}
	obs = append(obs, sol.X...)
	obs = append(obs, sol.Duals...)
	return append(obs, sol.BoundDuals...)
}

// dispatchObs flattens a dispatch result: welfare, then every map in key
// order. The maps are built from the LP's X, Duals and BoundDuals.
func dispatchObs(r *flow.Result) []float64 {
	obs := []float64{r.Welfare}
	for _, m := range []map[string]float64{r.Flow, r.Gen, r.Load, r.Price, r.CapacityRent} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			obs = append(obs, m[k])
		}
	}
	return obs
}

// pricingCases is the battery: 250 seeded random LPs, each solved cold and
// then warm from its own basis with the objective negated (a primal-feasible
// re-entry that has to pivot), plus the stressed westgrid baseline dispatch,
// its first outages cold, and cost-perturbed dispatches warm from the
// baseline basis.
func pricingCases(t *testing.T) []pricingCase {
	t.Helper()
	bounded := lp.Options{Method: lp.MethodDense}
	var cases []pricingCase
	for seed := uint64(0); seed < 250; seed++ {
		seed := seed
		cases = append(cases, pricingCase{"random/cold", func() ([]float64, bool, error) {
			sol, err := lp.GenRandomProblem(seed).SolveOpts(bounded)
			if err != nil {
				return nil, false, err
			}
			return solutionObs(sol), false, nil
		}})
		cold, err := lp.GenRandomProblem(seed).SolveOpts(bounded)
		if err != nil || cold.Status != lp.Optimal {
			continue
		}
		cases = append(cases, pricingCase{"random/warm", func() ([]float64, bool, error) {
			p := lp.GenRandomProblem(seed)
			for v := 0; v < p.NumVariables(); v++ {
				p.SetCost(v, -p.Cost(v))
			}
			sol, err := p.SolveOpts(lp.Options{Method: lp.MethodDense, WarmStart: cold.Basis()})
			if err != nil {
				return nil, false, err
			}
			return solutionObs(sol), sol.WarmStarted, nil
		}})
	}

	g := loadGrids(t)["westgrid_stressed"]
	if g == nil {
		t.Fatal("westgrid_stressed fixture missing")
	}
	dispatch := func(g *graph.Graph, opts lp.Options) func() ([]float64, bool, error) {
		return func() ([]float64, bool, error) {
			r, err := flow.DispatchOpts(g, flow.Options{LP: opts})
			if err != nil {
				return nil, false, err
			}
			return dispatchObs(r), r.WarmStarted, nil
		}
	}
	base, err := flow.DispatchOpts(g, flow.Options{LP: bounded})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, pricingCase{"westgrid/baseline", dispatch(g, bounded)})
	for _, id := range g.AssetIDs()[:8] {
		out := g.Clone()
		out.Edge(id).Capacity = 0
		cases = append(cases, pricingCase{"westgrid/outage:" + id, dispatch(out, bounded)})
		dear := g.Clone()
		dear.Edge(id).Cost = 2*dear.Edge(id).Cost + 5
		cases = append(cases, pricingCase{"westgrid/warm-cost:" + id,
			dispatch(dear, lp.Options{Method: lp.MethodDense, WarmStart: base.Basis})})
	}
	return cases
}

// TestCarriedPricingMatchesFresh checks, after every pivot and bound flip of
// every battery solve (phase 1, phase 2 and warm re-entry), that the carried
// reduced-cost row agrees with a fresh pricing pass to 1e-9 of the row's
// magnitude.
func TestCarriedPricingMatchesFresh(t *testing.T) {
	cases := pricingCases(t)
	var checks, phase1, warmChecks, solveChecks int
	worst := 0.0
	restore := lp.SetPricingHook(func(s lp.PricingState) {
		checks++
		solveChecks++
		if s.Phase1 {
			phase1++
		}
		scale := 1.0
		for _, f := range s.Fresh {
			scale = math.Max(scale, math.Abs(f))
		}
		for j, f := range s.Fresh {
			if dev := math.Abs(s.Carried[j]-f) / scale; dev > worst {
				worst = dev
			}
		}
	})
	defer restore()

	for _, c := range cases {
		solveChecks = 0
		_, warm, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if warm {
			warmChecks += solveChecks
		}
	}
	t.Logf("%d checks (%d phase 1, %d warm), worst scaled deviation %.3g", checks, phase1, warmChecks, worst)
	if worst > 1e-9 {
		t.Errorf("carried reduced costs drifted %.3g (scaled) from fresh pricing, want ≤ 1e-9", worst)
	}
	if phase1 == 0 || phase1 == checks || warmChecks == 0 {
		t.Fatalf("battery too weak: %d checks, %d in phase 1, %d on warm re-entry", checks, phase1, warmChecks)
	}
}

// TestCarriedPricingRefreshGuard zeroes the carried row after every third
// pivot, so the carried row falsely reports that nothing improves. The
// fresh pricing pass before Optimal must catch every one of those, and each
// solve must reach the answer of an untouched solve.
func TestCarriedPricingRefreshGuard(t *testing.T) {
	cases := pricingCases(t)
	want := make([][]float64, len(cases))
	for i, c := range cases {
		obs, _, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		want[i] = obs
	}

	corrupted := 0
	restore := lp.SetPricingHook(func(s lp.PricingState) {
		if s.Iter%3 == 1 {
			clear(s.Carried)
			corrupted++
		}
	})
	defer restore()
	for i, c := range cases {
		got, _, err := c.run()
		if err != nil {
			t.Fatalf("%s: corrupted solve: %v", c.label, err)
		}
		if len(got) != len(want[i]) || got[0] != want[i][0] {
			t.Errorf("%s: corrupted solve ended %v, untouched %v", c.label, got[:1], want[i][:1])
			continue
		}
		for k := range got {
			if !agree(got[k], want[i][k]) {
				t.Errorf("%s: observable %d is %v after corruption, %v untouched", c.label, k, got[k], want[i][k])
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("the hook never corrupted a carried row")
	}
}

// TestCarriedPricingUnboundedGuard corrupts the carried row so that it
// names a column whose ray is unbounded but whose true reduced cost is
// zero. min −x s.t. x ≤ 1, x − y ≤ 5 is optimal at x = 1 after one pivot;
// y then has no blocking row and no upper bound. The fresh pricing pass
// before Unbounded must catch the false ray and report Optimal.
func TestCarriedPricingUnboundedGuard(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddVariable("x", -1, math.Inf(1))
	y := p.AddVariable("y", 0, math.Inf(1))
	p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: x, Value: 1}}, Sense: lp.LE, RHS: 1})
	p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: x, Value: 1}, {Var: y, Value: -1}}, Sense: lp.LE, RHS: 5})

	corrupted := 0
	restore := lp.SetPricingHook(func(s lp.PricingState) {
		if s.Iter == 1 {
			s.Carried[y] = -1
			corrupted++
		}
	})
	defer restore()
	sol, err := p.SolveOpts(lp.Options{Method: lp.MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted != 1 {
		t.Fatalf("the hook corrupted %d carried rows, want 1", corrupted)
	}
	if sol.Status != lp.Optimal || sol.Objective != -1 || sol.X[x] != 1 || sol.X[y] != 0 {
		t.Errorf("corrupted solve: status %v, objective %v, x = %v; want Optimal, −1, [1 0]",
			sol.Status, sol.Objective, sol.X)
	}
}

// TestBoundedPivotPathLocked pins Solution.Iterations of the dense kernel
// on the stressed westgrid baseline dispatch, under MethodDense and under
// the zero-value options (the size rule keeps it dense), and on the first 50
// seeded random LPs. A change to pricing or tie-breaking that moves the
// vertex path fails here before it moves any benchmark counter.
func TestBoundedPivotPathLocked(t *testing.T) {
	g := loadGrids(t)["westgrid_stressed"]
	if g == nil {
		t.Fatal("westgrid_stressed fixture missing")
	}
	sparse := telemetry.Default().Counter("lp.revised.solves")
	for _, opts := range []lp.Options{{Method: lp.MethodDense}, {}} {
		before := sparse.Value()
		r, err := flow.DispatchOpts(g, flow.Options{LP: opts})
		if err != nil {
			t.Fatal(err)
		}
		if r.Iterations != 141 || sparse.Value() != before {
			t.Errorf("%v westgrid_stressed baseline dispatch: %d pivots, %d sparse solves; want 141 dense pivots",
				opts.Method, r.Iterations, sparse.Value()-before)
		}
	}

	wantIters := [50]int{
		5, 3, 15, 7, 10, 12, 1, 7, 5, 2,
		8, 16, 2, 5, 8, 2, 9, 5, 3, 0,
		15, 7, 9, 4, 1, 6, 5, 9, 13, 2,
		14, 11, 3, 10, 5, 4, 5, 10, 1, 12,
		11, 3, 2, 6, 2, 6, 7, 5, 1, 4,
	}
	// O optimal, I infeasible, U unbounded.
	const wantStatus = "UIIUOOIIII" + "OIIUOIIIOO" + "IIIOUOOOOI" + "OIIOIOIIIO" + "IOOIIOIIIO"
	letter := map[lp.Status]byte{lp.Optimal: 'O', lp.Infeasible: 'I', lp.Unbounded: 'U'}
	for seed, want := range wantIters {
		sol, err := lp.GenRandomProblem(uint64(seed)).SolveOpts(lp.Options{Method: lp.MethodDense})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if sol.Iterations != want || letter[sol.Status] != wantStatus[seed] {
			t.Errorf("seed %d: %d pivots, status %v; want %d pivots, status %c",
				seed, sol.Iterations, sol.Status, want, wantStatus[seed])
		}
	}
}

// TestRevisedPivotPathLocked pins Solution.Iterations of the sparse LU/eta
// kernel: the 64-region national baseline dispatch under the zero-value
// options (above the dense crossover, so the size rule picks the sparse
// kernel), then, with the crossover forced off so every solve runs sparse,
// the first 50 seeded random LPs and a bound-cut warm re-solve of each
// optimal seed under both kernels. The cut halves every structural value
// strictly inside its bounds, which leaves the cold basis dual feasible but
// primal infeasible, so the warm solve re-enters through the dual phase (or,
// when the cut leaves no feasible point, falls back to the cold path that
// says so).
func TestRevisedPivotPathLocked(t *testing.T) {
	g, err := gridgen.Build(gridgen.Config{
		Regions: 64, Seed: 3, Tier: gridgen.TierNational, Stress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sparse := telemetry.Default().Counter("lp.revised.solves")
	before := sparse.Value()
	r, err := flow.DispatchOpts(g, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations != 1689 || sparse.Value()-before != 1 {
		t.Errorf("national baseline dispatch: %d pivots, %d sparse solves; want 1689 pivots, 1 sparse solve",
			r.Iterations, sparse.Value()-before)
	}

	old := lp.SetRevisedFinishMaxRows(-1)
	defer lp.SetRevisedFinishMaxRows(old)
	revised := lp.Options{Method: lp.MethodAuto}

	wantIters := [50]int{
		5, 3, 15, 7, 10, 12, 1, 7, 5, 2,
		8, 16, 2, 5, 8, 2, 9, 5, 3, 0,
		15, 7, 9, 4, 1, 6, 5, 9, 13, 2,
		14, 11, 3, 10, 5, 4, 5, 10, 1, 12,
		11, 3, 2, 6, 2, 6, 7, 5, 1, 4,
	}
	// O optimal, I infeasible, U unbounded.
	const wantStatus = "UIIUOOIIII" + "OIIUOIIIOO" + "IIIOUOOOOI" + "OIIOIOIIIO" + "IOOIIOIIIO"
	letter := map[lp.Status]byte{lp.Optimal: 'O', lp.Infeasible: 'I', lp.Unbounded: 'U'}
	for seed, want := range wantIters {
		sol, err := lp.GenRandomProblem(uint64(seed)).SolveOpts(revised)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			continue
		}
		if sol.Iterations != want || letter[sol.Status] != wantStatus[seed] {
			t.Errorf("seed %d: %d pivots, status %v; want %d pivots, status %c",
				seed, sol.Iterations, sol.Status, want, wantStatus[seed])
		}
	}

	// Per seed: the warm re-solve's pivots, or -1 when the cold solve is
	// not optimal. W finished warm, C fell back cold, - was not re-solved.
	wantCut := [50]int{
		-1, -1, -1, -1, 5, 8, -1, -1, -1, -1,
		4, -1, -1, -1, 1, -1, -1, -1, 0, 0,
		-1, -1, -1, 1, -1, 1, 0, 5, 9, -1,
		11, -1, -1, 9, -1, 0, -1, -1, -1, 5,
		-1, 0, 0, -1, -1, 1, -1, -1, -1, 2,
	}
	const wantCutPath = "----CC----" + "C---W---WW" + "---W-WWWC-" + "C--C-W---C" + "-WW--W---C"
	for _, k := range []lp.Options{{Method: lp.MethodDense}, revised} {
		var got [50]int
		path := make([]byte, 0, 50)
		for seed := range got {
			got[seed] = -1
			cold, err := lp.GenRandomProblem(uint64(seed)).SolveOpts(k)
			if err != nil || cold.Status != lp.Optimal {
				path = append(path, '-')
				continue
			}
			p := lp.GenRandomProblem(uint64(seed))
			for j, x := range cold.X {
				if x > 0 && x < p.Upper(j) {
					p.SetUpper(j, x/2)
				}
			}
			opts := k
			opts.WarmStart = cold.Basis()
			sol, err := p.SolveOpts(opts)
			if err != nil {
				t.Fatalf("%v seed %d: warm re-solve: %v", k.Method, seed, err)
			}
			got[seed] = sol.Iterations
			if sol.WarmStarted {
				path = append(path, 'W')
			} else {
				path = append(path, 'C')
			}
		}
		if got != wantCut || string(path) != wantCutPath {
			t.Errorf("%v bound-cut warm re-solves\n got %v %s\nwant %v %s", k.Method, got, path, wantCut, wantCutPath)
		}
	}
}
