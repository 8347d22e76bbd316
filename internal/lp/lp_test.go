package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-6

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func solveOrDie(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestTrivialUnconstrainedAtZero(t *testing.T) {
	p := NewProblem()
	p.AddVariable("x", 1, math.Inf(1))
	sol := solveOrDie(t, p)
	if sol.X[0] != 0 || sol.Objective != 0 {
		t.Fatalf("got x=%v obj=%v, want 0,0", sol.X[0], sol.Objective)
	}
}

func TestSimpleMaximization(t *testing.T) {
	// max 3x + 2y s.t. x+y ≤ 4, x+3y ≤ 6  → x=4, y=0, obj=12.
	p := NewProblem()
	x := p.AddVariable("x", -3, math.Inf(1))
	y := p.AddVariable("y", -2, math.Inf(1))
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: LE, RHS: 4})
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 3}}, Sense: LE, RHS: 6})
	sol := solveOrDie(t, p)
	if !approx(sol.Objective, -12, eps) {
		t.Fatalf("objective = %v, want -12", sol.Objective)
	}
	if !approx(sol.X[x], 4, eps) || !approx(sol.X[y], 0, eps) {
		t.Fatalf("x=%v y=%v, want 4,0", sol.X[x], sol.X[y])
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y = 3, y ≥ 1 → x=2, y=1, obj=4.
	p := NewProblem()
	x := p.AddVariable("x", 1, math.Inf(1))
	y := p.AddVariable("y", 2, math.Inf(1))
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: EQ, RHS: 3})
	p.AddConstraint(Constraint{Coefs: []Coef{{y, 1}}, Sense: GE, RHS: 1})
	sol := solveOrDie(t, p)
	if !approx(sol.Objective, 4, eps) {
		t.Fatalf("objective = %v, want 4", sol.Objective)
	}
}

func TestUpperBounds(t *testing.T) {
	// min -x - y s.t. x ≤ 2, y ≤ 3, x + y ≤ 4 → obj = -4.
	p := NewProblem()
	x := p.AddVariable("x", -1, 2)
	y := p.AddVariable("y", -1, 3)
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: LE, RHS: 4})
	sol := solveOrDie(t, p)
	if !approx(sol.Objective, -4, eps) {
		t.Fatalf("objective = %v, want -4", sol.Objective)
	}
	if sol.X[x] > 2+eps || sol.X[y] > 3+eps {
		t.Fatalf("bounds violated: x=%v y=%v", sol.X[x], sol.X[y])
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1, math.Inf(1))
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}}, Sense: LE, RHS: 1})
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}}, Sense: GE, RHS: 2})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 1)
	y := p.AddVariable("y", 0, 1)
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: EQ, RHS: 5})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", -1, math.Inf(1))
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}}, Sense: GE, RHS: 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x ≥ -1 written as -x ≤ 1; min x s.t. -x ≤ 1 → x=0 (x≥0 anyway).
	// More meaningful: min -x s.t. -x ≥ -5 (i.e. x ≤ 5) → x=5.
	p := NewProblem()
	x := p.AddVariable("x", -1, math.Inf(1))
	p.AddConstraint(Constraint{Coefs: []Coef{{x, -1}}, Sense: GE, RHS: -5})
	sol := solveOrDie(t, p)
	if !approx(sol.X[x], 5, eps) {
		t.Fatalf("x = %v, want 5", sol.X[x])
	}
}

func TestDegenerateProblem(t *testing.T) {
	// A classically degenerate LP (multiple constraints active at the
	// optimum) must still terminate and find the optimum.
	p := NewProblem()
	x := p.AddVariable("x", -0.75, math.Inf(1))
	y := p.AddVariable("y", 150, math.Inf(1))
	z := p.AddVariable("z", -0.02, math.Inf(1))
	w := p.AddVariable("w", 6, math.Inf(1))
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 0.25}, {y, -60}, {z, -0.04}, {w, 9}}, Sense: LE, RHS: 0})
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 0.5}, {y, -90}, {z, -0.02}, {w, 3}}, Sense: LE, RHS: 0})
	p.AddConstraint(Constraint{Coefs: []Coef{{z, 1}}, Sense: LE, RHS: 1})
	sol := solveOrDie(t, p)
	if !approx(sol.Objective, -0.05, eps) {
		t.Fatalf("objective = %v, want -0.05 (Beale's example)", sol.Objective)
	}
}

func TestDualsTransportation(t *testing.T) {
	// min 2a + 3b s.t. a + b ≥ 10, a ≤ 6.
	// Optimum: a=6, b=4, obj=24. Duals: demand row y=3, bound on a = -1
	// (relaxing a's bound by 1 saves cost 1: swap a unit of b for a).
	p := NewProblem()
	a := p.AddVariable("a", 2, 6)
	b := p.AddVariable("b", 3, math.Inf(1))
	demand := p.AddConstraint(Constraint{Coefs: []Coef{{a, 1}, {b, 1}}, Sense: GE, RHS: 10})
	sol := solveOrDie(t, p)
	if !approx(sol.Objective, 24, eps) {
		t.Fatalf("objective = %v, want 24", sol.Objective)
	}
	if !approx(sol.Duals[demand], 3, eps) {
		t.Fatalf("demand dual = %v, want 3", sol.Duals[demand])
	}
	if !approx(sol.BoundDuals[a], -1, eps) {
		t.Fatalf("bound dual of a = %v, want -1", sol.BoundDuals[a])
	}
}

func TestDualObjectiveMatchesPrimal(t *testing.T) {
	// Strong duality: cᵀx* = yᵀb (+ bound rents) for a fixed problem.
	p := NewProblem()
	x := p.AddVariable("x", 4, 10)
	y := p.AddVariable("y", 3, math.Inf(1))
	z := p.AddVariable("z", 7, 5)
	r1 := p.AddConstraint(Constraint{Coefs: []Coef{{x, 2}, {y, 1}, {z, 1}}, Sense: GE, RHS: 8})
	r2 := p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 3}}, Sense: GE, RHS: 6})
	sol := solveOrDie(t, p)
	dualObj := sol.Duals[r1]*8 + sol.Duals[r2]*6 + sol.BoundDuals[x]*10 + sol.BoundDuals[z]*5
	if !approx(sol.Objective, dualObj, 1e-6) {
		t.Fatalf("strong duality violated: primal %v dual %v", sol.Objective, dualObj)
	}
}

// TestDualPerturbationProperty checks the defining property of duals on
// random feasible bounded problems: perturbing a binding RHS by δ changes
// the optimum by ≈ y·δ.
func TestDualPerturbationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		nv := 2 + rng.Intn(4)
		nc := 1 + rng.Intn(4)
		p := NewProblem()
		for j := 0; j < nv; j++ {
			p.AddVariable("v", 0.5+rng.Float64()*4, 1+rng.Float64()*9)
		}
		type rowSpec struct {
			idx int
			rhs float64
		}
		var rows []rowSpec
		for i := 0; i < nc; i++ {
			coefs := make([]Coef, 0, nv)
			for j := 0; j < nv; j++ {
				coefs = append(coefs, Coef{j, 0.2 + rng.Float64()})
			}
			rhs := 1 + rng.Float64()*3
			idx := p.AddConstraint(Constraint{Coefs: coefs, Sense: GE, RHS: rhs})
			rows = append(rows, rowSpec{idx, rhs})
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != Optimal {
			continue // random instance infeasible within bounds; skip
		}
		// Perturb each constraint RHS by a small δ and compare.
		const delta = 1e-4
		for _, rs := range rows {
			p2 := NewProblem()
			for j := 0; j < nv; j++ {
				p2.AddVariable("v", p.obj[j], p.upper[j])
			}
			for i, row := range p.rows {
				r := row
				if i == rs.idx {
					r.RHS += delta
				}
				p2.AddConstraint(r)
			}
			sol2, err := p2.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if sol2.Status != Optimal {
				continue
			}
			pred := sol.Duals[rs.idx] * delta
			got := sol2.Objective - sol.Objective
			if math.Abs(got-pred) > 1e-6+1e-3*math.Abs(pred) {
				t.Errorf("trial %d row %d: Δobj=%.3e, dual prediction %.3e (dual=%v)",
					trial, rs.idx, got, pred, sol.Duals[rs.idx])
			}
		}
	}
}

// TestQuickFeasibilityInvariant: any Optimal solution must satisfy every
// constraint and bound within tolerance, on randomized instances.
func TestQuickFeasibilityInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(6)
		nc := rng.Intn(6)
		p := NewProblem()
		for j := 0; j < nv; j++ {
			u := math.Inf(1)
			if rng.Intn(2) == 0 {
				u = rng.Float64() * 10
			}
			p.AddVariable("v", rng.NormFloat64()*3, u)
		}
		for i := 0; i < nc; i++ {
			coefs := make([]Coef, 0, nv)
			for j := 0; j < nv; j++ {
				if rng.Intn(2) == 0 {
					coefs = append(coefs, Coef{j, rng.NormFloat64() * 2})
				}
			}
			if len(coefs) == 0 {
				coefs = append(coefs, Coef{0, 1})
			}
			p.AddConstraint(Constraint{
				Coefs: coefs,
				Sense: Sense(rng.Intn(3)),
				RHS:   rng.NormFloat64() * 5,
			})
		}
		sol, err := p.Solve()
		if err != nil {
			return false
		}
		if sol.Status != Optimal {
			return true // nothing to check
		}
		const tol = 1e-6
		for j, x := range sol.X {
			if x < -tol || x > p.upper[j]+tol {
				return false
			}
		}
		for _, row := range p.rows {
			lhs := 0.0
			for _, co := range row.Coefs {
				lhs += co.Value * sol.X[co.Var]
			}
			switch row.Sense {
			case LE:
				if lhs > row.RHS+tol*(1+math.Abs(row.RHS)) {
					return false
				}
			case GE:
				if lhs < row.RHS-tol*(1+math.Abs(row.RHS)) {
					return false
				}
			case EQ:
				if math.Abs(lhs-row.RHS) > tol*(1+math.Abs(row.RHS)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOptimalityAgainstVertexEnumeration cross-checks the simplex
// optimum against brute-force vertex enumeration on tiny 2-variable
// box+one-constraint problems where the optimum is easily characterized.
func TestQuickOptimalityAgainstVertexEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// min c1 x + c2 y s.t. x ≤ u1, y ≤ u2, a1 x + a2 y ≤ b with
		// a1,a2 > 0, b > 0: candidate optima are vertices of the
		// polytope; enumerate them.
		c1, c2 := rng.NormFloat64()*2, rng.NormFloat64()*2
		u1, u2 := 0.5+rng.Float64()*5, 0.5+rng.Float64()*5
		a1, a2 := 0.1+rng.Float64(), 0.1+rng.Float64()
		b := 0.5 + rng.Float64()*5
		p := NewProblem()
		x := p.AddVariable("x", c1, u1)
		y := p.AddVariable("y", c2, u2)
		p.AddConstraint(Constraint{Coefs: []Coef{{x, a1}, {y, a2}}, Sense: LE, RHS: b})
		sol, err := p.Solve()
		if err != nil || sol.Status != Optimal {
			return false
		}
		feasible := func(px, py float64) bool {
			return px >= -1e-9 && py >= -1e-9 && px <= u1+1e-9 && py <= u2+1e-9 &&
				a1*px+a2*py <= b+1e-9
		}
		best := math.Inf(1)
		cand := [][2]float64{
			{0, 0}, {u1, 0}, {0, u2}, {u1, u2},
			{b / a1, 0}, {0, b / a2},
			{u1, (b - a1*u1) / a2}, {(b - a2*u2) / a1, u2},
		}
		for _, c := range cand {
			if feasible(c[0], c[1]) {
				v := c1*c[0] + c2*c[1]
				if v < best {
					best = v
				}
			}
		}
		return approx(sol.Objective, best, 1e-6*(1+math.Abs(best)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadInput(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", math.NaN(), math.Inf(1))
	if _, err := p.Solve(); err == nil {
		t.Fatal("expected error for NaN cost")
	}
	p = NewProblem()
	x = p.AddVariable("x", 1, math.Inf(1))
	p.AddConstraint(Constraint{Coefs: []Coef{{x + 5, 1}}, Sense: LE, RHS: 1})
	if _, err := p.Solve(); err == nil {
		t.Fatal("expected error for out-of-range variable index")
	}
	p = NewProblem()
	x = p.AddVariable("x", 1, math.Inf(1))
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}}, Sense: LE, RHS: math.NaN()})
	if _, err := p.Solve(); err == nil {
		t.Fatal("expected error for NaN RHS")
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality rows leave an artificial basic at zero after
	// phase 1, but must still solve on both kernels, duals included:
	// min x s.t. x + y = 2 (twice), y ≤ 1.
	for _, sparse := range []bool{false, true} {
		if sparse {
			forceSparseExtract(t)
		}
		p := NewProblem()
		x := p.AddVariable("x", 1, math.Inf(1))
		y := p.AddVariable("y", 0, 1)
		p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: EQ, RHS: 2})
		p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: EQ, RHS: 2})
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("sparse=%v: %v", sparse, err)
		}
		if sol.Status != Optimal || !approx(sol.X[x], 1, eps) {
			t.Fatalf("sparse=%v: status=%v x=%v, want optimal x=1", sparse, sol.Status, sol.X[x])
		}
		if err := CheckKKT(p, sol); err != nil {
			t.Fatalf("sparse=%v: %v", sparse, err)
		}
	}
}

func TestSetCostAndUpperAccessors(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1, math.Inf(1))
	p.SetCost(x, -2)
	p.SetUpper(x, 3)
	sol := solveOrDie(t, p)
	if !approx(sol.X[x], 3, eps) || !approx(sol.Objective, -6, eps) {
		t.Fatalf("x=%v obj=%v, want 3,-6", sol.X[x], sol.Objective)
	}
	p.SetUpper(x, math.Inf(1))
	sol2, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != Unbounded {
		t.Fatalf("status=%v, want unbounded after removing bound", sol2.Status)
	}
	if p.NumVariables() != 1 || p.NumConstraints() != 0 {
		t.Fatalf("accessors wrong: %d vars %d cons", p.NumVariables(), p.NumConstraints())
	}
	if p.VariableName(x) != "x" {
		t.Fatalf("name = %q", p.VariableName(x))
	}
}

func TestStatusAndSenseStrings(t *testing.T) {
	for s, want := range map[Status]string{Optimal: "optimal", Infeasible: "infeasible", Unbounded: "unbounded", IterationLimit: "iteration-limit"} {
		if s.String() != want {
			t.Errorf("Status %d → %q, want %q", s, s.String(), want)
		}
	}
	for s, want := range map[Sense]string{LE: "<=", EQ: "==", GE: ">="} {
		if s.String() != want {
			t.Errorf("Sense %d → %q, want %q", s, s.String(), want)
		}
	}
	if Status(42).String() == "" || Sense(42).String() == "" {
		t.Error("unknown enum values must still render")
	}
}

func TestIterationLimit(t *testing.T) {
	p := NewProblem()
	for j := 0; j < 8; j++ {
		p.AddVariable("v", -1, 10)
	}
	for i := 0; i < 8; i++ {
		coefs := make([]Coef, 8)
		for j := range coefs {
			coefs[j] = Coef{j, float64(1 + (i+j)%3)}
		}
		p.AddConstraint(Constraint{Coefs: coefs, Sense: LE, RHS: 20})
	}
	sol, err := p.SolveOpts(Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterationLimit {
		t.Fatalf("status=%v, want iteration-limit", sol.Status)
	}
}

func TestSplitFreeVariableDuals(t *testing.T) {
	// A free variable split as x = x⁺ − x⁻ (as DC-OPF splits its angles
	// and flows) gives the split pair opposite columns. Both kernels must
	// still return duals that certify the optimum.
	build := func() *Problem {
		// min |x| − 2y with x = x⁺ − x⁻ = y − 2 and y ≤ 5: y = 5, x = 3,
		// objective −7. Relaxing the row to x = y − 2 + δ costs +δ, and
		// relaxing y's bound gains 2 − 1 per unit.
		p := NewProblem()
		xp := p.AddVariable("x+", 1, 10)
		xn := p.AddVariable("x-", 1, 10)
		y := p.AddVariable("y", -2, 5)
		p.AddConstraint(Constraint{
			Coefs: []Coef{{xp, 1}, {xn, -1}, {y, -1}},
			Sense: EQ, RHS: -2,
		})
		return p
	}
	for _, sparse := range []bool{false, true} {
		if sparse {
			forceSparseExtract(t)
		}
		p := build()
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("sparse=%v: %v", sparse, err)
		}
		if sol.Status != Optimal || !approx(sol.Objective, -7, eps) {
			t.Fatalf("sparse=%v: status=%v obj=%v", sparse, sol.Status, sol.Objective)
		}
		if !approx(sol.Duals[0], 1, eps) || !approx(sol.BoundDuals[2], -1, eps) {
			t.Fatalf("sparse=%v: row dual %v, bound duals %v; want 1 and y's −1", sparse, sol.Duals[0], sol.BoundDuals)
		}
		if err := CheckKKT(p, sol); err != nil {
			t.Fatalf("sparse=%v: %v", sparse, err)
		}
	}
}
