package milp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"cpsguard/internal/lp"
	"cpsguard/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// knapsack builds max Σ v_i x_i s.t. Σ w_i x_i ≤ budget, x ∈ {0,1}ⁿ as a
// minimization MILP.
func knapsack(values, weights []float64, budget float64) Problem {
	p := lp.NewProblem()
	coefs := make([]lp.Coef, len(values))
	binary := make([]int, len(values))
	for i := range values {
		v := p.AddVariable("x", -values[i], 1)
		binary[i] = v
		coefs[i] = lp.Coef{Var: v, Value: weights[i]}
	}
	p.AddConstraint(lp.Constraint{Coefs: coefs, Sense: lp.LE, RHS: budget})
	return Problem{LP: p, Binary: binary}
}

// bruteKnapsack enumerates all subsets.
func bruteKnapsack(values, weights []float64, budget float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		w, v := 0.0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				w += weights[i]
				v += values[i]
			}
		}
		if w <= budget && v > best {
			best = v
		}
	}
	return best
}

func TestKnapsackSmall(t *testing.T) {
	values := []float64{60, 100, 120}
	weights := []float64{10, 20, 30}
	sol, err := Solve(knapsack(values, weights, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal || !sol.Proven {
		t.Fatalf("status=%v proven=%v", sol.Status, sol.Proven)
	}
	if !approx(-sol.Objective, 220, 1e-6) {
		t.Fatalf("value = %v, want 220", -sol.Objective)
	}
}

func TestIntegralityEnforced(t *testing.T) {
	// LP relaxation would take fractional x: v=10,w=7,budget=5 → x=5/7.
	sol, err := Solve(knapsack([]float64{10}, []float64{7}, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X[0] != 0 {
		t.Fatalf("x = %v, want 0 (item does not fit)", sol.X[0])
	}
	if !approx(sol.Objective, 0, 1e-9) {
		t.Fatalf("objective = %v", sol.Objective)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddVariable("x", 1, 1)
	p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: x, Value: 1}}, Sense: lp.GE, RHS: 2})
	sol, err := Solve(Problem{LP: p, Binary: []int{x}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestBinaryGapInfeasibility(t *testing.T) {
	// 2x = 1 has the LP solution x=0.5 but no binary solution.
	p := lp.NewProblem()
	x := p.AddVariable("x", 0, 1)
	p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: x, Value: 2}}, Sense: lp.EQ, RHS: 1})
	sol, err := Solve(Problem{LP: p, Binary: []int{x}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Infeasible {
		t.Fatalf("status = %v, want infeasible (no binary point)", sol.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 3b + y s.t. b ∈ {0,1}, 0 ≤ y ≤ 2, b + y ≤ 2.4 → b=1, y=1.4.
	p := lp.NewProblem()
	b := p.AddVariable("b", -3, 1)
	y := p.AddVariable("y", -1, 2)
	p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: b, Value: 1}, {Var: y, Value: 1}}, Sense: lp.LE, RHS: 2.4})
	sol, err := Solve(Problem{LP: p, Binary: []int{b}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[b], 1, 1e-9) || !approx(sol.X[y], 1.4, 1e-6) {
		t.Fatalf("b=%v y=%v, want 1, 1.4", sol.X[b], sol.X[y])
	}
}

func TestAgainstBruteForce(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rs := rng.Derive(99, uint64(trial))
		n := 2 + rs.Intn(9)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = 1 + rs.Float64()*20
			weights[i] = 1 + rs.Float64()*10
		}
		budget := 5 + rs.Float64()*25
		sol, err := Solve(knapsack(values, weights, budget), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteKnapsack(values, weights, budget)
		if !approx(-sol.Objective, want, 1e-6*(1+want)) {
			t.Fatalf("trial %d: milp %v, brute %v", trial, -sol.Objective, want)
		}
		if !sol.Proven {
			t.Fatalf("trial %d: optimality not proven", trial)
		}
	}
}

// Property: solutions respect binary domains and the knapsack constraint.
func TestQuickSolutionsAreFeasible(t *testing.T) {
	f := func(seed uint64) bool {
		rs := rng.New(seed)
		n := 1 + rs.Intn(8)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = rs.Float64() * 10
			weights[i] = rs.Float64() * 10
		}
		budget := rs.Float64() * 20
		sol, err := Solve(knapsack(values, weights, budget), Options{})
		if err != nil || sol.Status != lp.Optimal {
			return err == nil // infeasible/unbounded acceptable, error not
		}
		w := 0.0
		for i := 0; i < n; i++ {
			x := sol.X[i]
			if x != 0 && x != 1 {
				return false
			}
			w += weights[i] * x
		}
		return w <= budget+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeLimit(t *testing.T) {
	values := make([]float64, 14)
	weights := make([]float64, 14)
	rs := rng.New(5)
	for i := range values {
		values[i] = 1 + rs.Float64()
		weights[i] = 1 + rs.Float64()
	}
	_, err := Solve(knapsack(values, weights, 7), Options{MaxNodes: 1})
	// With MaxNodes=1 only the root is popped; the root relaxation is
	// fractional so no incumbent exists.
	if err != ErrNoIncumbent {
		t.Fatalf("err = %v, want ErrNoIncumbent", err)
	}
}

func TestNodeLimitIncumbent(t *testing.T) {
	// Best-first search proves the first incumbent it finds, so a node
	// limit ends the search in one of two ways: with no incumbent
	// (NodeLimit and ErrNoIncumbent), or with a proven, binary, in-budget
	// optimum. Sweep the limit across both outcomes on one knapsack.
	values := make([]float64, 16)
	weights := make([]float64, 16)
	rs := rng.New(12)
	for i := range values {
		values[i] = 1 + rs.Float64()*5
		weights[i] = 1 + rs.Float64()*3
	}
	var limited, proven int
	for maxNodes := 1; maxNodes <= 45; maxNodes++ {
		sol, err := Solve(knapsack(values, weights, 12), Options{MaxNodes: maxNodes})
		if err != nil {
			if !errors.Is(err, ErrNoIncumbent) || sol == nil || sol.Status != lp.NodeLimit || sol.Nodes != maxNodes {
				t.Fatalf("MaxNodes %d: err %v, solution %+v", maxNodes, err, sol)
			}
			limited++
			continue
		}
		if sol.Status != lp.Optimal || !sol.Proven {
			t.Fatalf("MaxNodes %d: status %v, proven %v", maxNodes, sol.Status, sol.Proven)
		}
		w := 0.0
		for i := 0; i < 16; i++ {
			if sol.X[i] != 0 && sol.X[i] != 1 {
				t.Fatalf("MaxNodes %d: non-binary solution: %v", maxNodes, sol.X[i])
			}
			w += weights[i] * sol.X[i]
		}
		if w > 12+1e-6 {
			t.Fatalf("MaxNodes %d: budget violated: %v", maxNodes, w)
		}
		proven++
	}
	if limited == 0 || proven == 0 {
		t.Fatalf("%d node-limit and %d proven exits: the sweep must reach both", limited, proven)
	}
}
