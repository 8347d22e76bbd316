// The dense-oracle differential battery for the revised simplex.
//
// External test package: it drives the revised method through the real
// dispatch pipeline (graph fixtures → flow LPs) as well as seeded random
// LPs, comparing every observable — status, objective, primal values, duals
// — against the dense bounded method, with the sparse extraction path
// forced via the export_test hook so the battery exercises the code the
// national-scale tier runs, not the dense-finish shortcut.
package lp_test

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/lp"
)

// diffTol is the agreement tolerance the battery asserts: absolute at small
// scale, relative once values reach the model's magnitudes.
const diffTol = 1e-9

func agree(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= diffTol*scale
}

func loadGrids(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "grids", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no grid fixtures in testdata/grids")
	}
	grids := make(map[string]*graph.Graph, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var g graph.Graph
		if err := json.Unmarshal(data, &g); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		name := filepath.Base(p)
		grids[name[:len(name)-len(".json")]] = &g
	}
	return grids
}

func sortedNames(grids map[string]*graph.Graph) []string {
	names := make([]string, 0, len(grids))
	for n := range grids {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// compareDispatch solves g with the dense oracle and the revised method and
// asserts full agreement of the dispatch observables.
func compareDispatch(t *testing.T, label string, g *graph.Graph) {
	t.Helper()
	dense, err := flow.DispatchOpts(g, flow.Options{LP: lp.Options{Method: lp.MethodDense}})
	if err != nil {
		t.Fatalf("%s: dense: %v", label, err)
	}
	rev, err := flow.DispatchOpts(g, flow.Options{LP: lp.Options{Method: lp.MethodAuto}})
	if err != nil {
		t.Fatalf("%s: revised: %v", label, err)
	}
	if !agree(dense.Welfare, rev.Welfare) {
		t.Errorf("%s: welfare %v (dense) vs %v (revised)", label, dense.Welfare, rev.Welfare)
	}
	for i, v := range dense.Flow {
		if !agree(v, rev.Flow[i]) {
			t.Errorf("%s: flow[%d] %v vs %v", label, i, v, rev.Flow[i])
		}
	}
	for i, v := range dense.Gen {
		if !agree(v, rev.Gen[i]) {
			t.Errorf("%s: gen[%d] %v vs %v", label, i, v, rev.Gen[i])
		}
	}
	for i, v := range dense.Load {
		if !agree(v, rev.Load[i]) {
			t.Errorf("%s: load[%d] %v vs %v", label, i, v, rev.Load[i])
		}
	}
	for i, v := range dense.Price {
		if !agree(v, rev.Price[i]) {
			t.Errorf("%s: price[%d] %v vs %v", label, i, v, rev.Price[i])
		}
	}
}

// TestRevisedVsDenseDifferential is the acceptance battery: grid fixtures,
// full single-edge outage sweeps, ≥200 seeded random LPs, and the
// SolveError/status taxonomy, all under the forced sparse extraction path.
// Every optimal solve either method makes in it, dispatches included, must
// also pass the KKT certificate.
func TestRevisedVsDenseDifferential(t *testing.T) {
	old := lp.SetRevisedFinishMaxRows(-1)
	defer lp.SetRevisedFinishMaxRows(old)
	certified := 0
	defer lp.CertifySolves(func(p *lp.Problem, err error) {
		certified++
		if err != nil {
			t.Errorf("certificate: %d×%d LP: %v", p.NumConstraints(), p.NumVariables(), err)
		}
	})()

	t.Run("fixtures", func(t *testing.T) {
		grids := loadGrids(t)
		for _, name := range sortedNames(grids) {
			compareDispatch(t, name, grids[name])
		}
	})

	t.Run("outage-sweep", func(t *testing.T) {
		grids := loadGrids(t)
		for _, name := range sortedNames(grids) {
			g := grids[name]
			ids := g.AssetIDs()
			if testing.Short() && len(ids) > 8 {
				ids = ids[:8]
			}
			for _, id := range ids {
				out := g.Clone()
				out.Edge(id).Capacity = 0
				compareDispatch(t, name+"/outage:"+id, out)
			}
		}
	})

	t.Run("random-lps", func(t *testing.T) {
		optimal, other := 0, 0
		for seed := uint64(0); seed < 250; seed++ {
			p := lp.GenRandomProblem(seed)
			dense, errD := p.SolveOpts(lp.Options{Method: lp.MethodDense})
			rev, errR := lp.GenRandomProblem(seed).SolveOpts(lp.Options{Method: lp.MethodAuto})
			if errD != nil || errR != nil {
				t.Errorf("seed %d: dense err=%v revised err=%v", seed, errD, errR)
				continue
			}
			if dense.Status != rev.Status {
				t.Errorf("seed %d: status %v (dense) vs %v (revised)", seed, dense.Status, rev.Status)
				continue
			}
			if dense.Status != lp.Optimal {
				other++
				continue
			}
			optimal++
			if !agree(dense.Objective, rev.Objective) {
				t.Errorf("seed %d: objective %v vs %v", seed, dense.Objective, rev.Objective)
			}
			for j := range dense.X {
				if !agree(dense.X[j], rev.X[j]) {
					t.Errorf("seed %d: X[%d] %v vs %v", seed, j, dense.X[j], rev.X[j])
				}
			}
		}
		if optimal < 100 {
			t.Fatalf("battery too weak: only %d optimal instances (want ≥100; %d non-optimal)", optimal, other)
		}
	})

	t.Run("taxonomy", func(t *testing.T) {
		methods := []lp.Method{lp.MethodDense, lp.MethodAuto}

		// Infeasible: upper bound 1 vs a ≥ 2 row.
		infeasible := func() *lp.Problem {
			p := lp.NewProblem()
			x := p.AddVariable("x", 1, 1)
			p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: x, Value: 1}}, Sense: lp.GE, RHS: 2})
			return p
		}
		// Unbounded: minimize −x−y with no cap in the improving direction.
		unbounded := func() *lp.Problem {
			p := lp.NewProblem()
			x := p.AddVariable("x", -1, math.Inf(1))
			y := p.AddVariable("y", -1, math.Inf(1))
			p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: x, Value: 1}, {Var: y, Value: -1}}, Sense: lp.LE, RHS: 3})
			return p
		}
		for _, m := range methods {
			if sol, err := infeasible().SolveOpts(lp.Options{Method: m}); err != nil || sol.Status != lp.Infeasible {
				t.Errorf("method %v: infeasible LP → status=%v err=%v", m, statusOf(sol), err)
			}
			if sol, err := unbounded().SolveOpts(lp.Options{Method: m}); err != nil || sol.Status != lp.Unbounded {
				t.Errorf("method %v: unbounded LP → status=%v err=%v", m, statusOf(sol), err)
			}
			// Canceled context surfaces as a Canceled status, not an error.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			p := lp.GenRandomProblem(11)
			if sol, err := p.SolveOpts(lp.Options{Method: m, Ctx: ctx}); err != nil || sol.Status != lp.Canceled {
				t.Errorf("method %v: canceled ctx → status=%v err=%v", m, statusOf(sol), err)
			}
		}
	})
	// random-lps alone makes at least 2×100 optimal solves.
	if certified < 200 {
		t.Fatalf("certificate too weak: only %d optimal solves certified", certified)
	}
}

func statusOf(sol *lp.Solution) lp.Status {
	if sol == nil {
		return lp.Status(-99)
	}
	return sol.Status
}

// TestRevisedWarmAcrossMethods checks factorization reuse across the method
// boundary: a basis captured by one bounded-layout method warm-starts the
// other, in both directions, with the optimum agreeing to battery tolerance.
func TestRevisedWarmAcrossMethods(t *testing.T) {
	old := lp.SetRevisedFinishMaxRows(-1)
	defer lp.SetRevisedFinishMaxRows(old)

	grids := loadGrids(t)
	for _, name := range sortedNames(grids) {
		g := grids[name]
		dense, err := flow.DispatchOpts(g, flow.Options{LP: lp.Options{Method: lp.MethodDense}})
		if err != nil {
			t.Fatal(err)
		}
		rev, err := flow.DispatchOpts(g, flow.Options{LP: lp.Options{Method: lp.MethodAuto}})
		if err != nil {
			t.Fatal(err)
		}
		if dense.Basis == nil || rev.Basis == nil {
			t.Fatalf("%s: missing exported basis (dense=%v revised=%v)", name, dense.Basis != nil, rev.Basis != nil)
		}
		// Dense basis → revised warm solve; revised basis → dense warm.
		rw, err := flow.DispatchOpts(g, flow.Options{LP: lp.Options{Method: lp.MethodAuto, WarmStart: dense.Basis}})
		if err != nil {
			t.Fatalf("%s: revised warm from dense basis: %v", name, err)
		}
		if !rw.WarmStarted {
			t.Errorf("%s: revised solve from dense basis fell back to cold", name)
		}
		if !agree(dense.Welfare, rw.Welfare) {
			t.Errorf("%s: revised-warm welfare %v vs %v", name, rw.Welfare, dense.Welfare)
		}
		dw, err := flow.DispatchOpts(g, flow.Options{LP: lp.Options{Method: lp.MethodDense, WarmStart: rev.Basis}})
		if err != nil {
			t.Fatalf("%s: dense warm from revised basis: %v", name, err)
		}
		if !dw.WarmStarted {
			t.Errorf("%s: dense solve from revised basis fell back to cold", name)
		}
		if !agree(dense.Welfare, dw.Welfare) {
			t.Errorf("%s: dense-warm welfare %v vs %v", name, dw.Welfare, dense.Welfare)
		}
	}
}
