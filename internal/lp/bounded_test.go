package lp

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func boundedOpts() Options { return Options{Method: MethodDense} }

func TestBoundedSimpleMaximization(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", -3, math.Inf(1))
	y := p.AddVariable("y", -2, math.Inf(1))
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: LE, RHS: 4})
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 3}}, Sense: LE, RHS: 6})
	sol, err := p.SolveOpts(boundedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, -12, eps) {
		t.Fatalf("status=%v obj=%v, want optimal -12", sol.Status, sol.Objective)
	}
}

func TestBoundedUpperBoundsImplicit(t *testing.T) {
	// min -x - y s.t. x ≤ 2, y ≤ 3 (as bounds), x + y ≤ 4 → -4.
	p := NewProblem()
	x := p.AddVariable("x", -1, 2)
	y := p.AddVariable("y", -1, 3)
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: LE, RHS: 4})
	sol, err := p.SolveOpts(boundedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, -4, eps) {
		t.Fatalf("objective = %v, want -4", sol.Objective)
	}
	if sol.X[x] > 2+eps || sol.X[y] > 3+eps {
		t.Fatalf("bounds violated: %v %v", sol.X[x], sol.X[y])
	}
}

func TestBoundedPureBoundFlip(t *testing.T) {
	// No constraints at all: min -x with x ≤ 5 → pure bound flip, x=5.
	p := NewProblem()
	x := p.AddVariable("x", -1, 5)
	sol, err := p.SolveOpts(boundedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[x], 5, eps) || !approx(sol.Objective, -5, eps) {
		t.Fatalf("x=%v obj=%v, want 5,-5", sol.X[x], sol.Objective)
	}
	if !approx(sol.BoundDuals[x], -1, eps) {
		t.Fatalf("bound dual = %v, want -1", sol.BoundDuals[x])
	}
}

func TestBoundedInfeasibleAndUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1, 1)
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}}, Sense: GE, RHS: 2})
	sol, err := p.SolveOpts(boundedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
	p2 := NewProblem()
	y := p2.AddVariable("y", -1, math.Inf(1))
	p2.AddConstraint(Constraint{Coefs: []Coef{{y, 1}}, Sense: GE, RHS: 1})
	sol2, err := p2.SolveOpts(boundedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol2.Status)
	}
}

func TestBoundedEqualityAndGE(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 1, math.Inf(1))
	y := p.AddVariable("y", 2, math.Inf(1))
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: EQ, RHS: 3})
	p.AddConstraint(Constraint{Coefs: []Coef{{y, 1}}, Sense: GE, RHS: 1})
	sol, err := p.SolveOpts(boundedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 4, eps) {
		t.Fatalf("status=%v obj=%v, want optimal 4", sol.Status, sol.Objective)
	}
}

func TestBoundedDualsTransportation(t *testing.T) {
	p := NewProblem()
	a := p.AddVariable("a", 2, 6)
	b := p.AddVariable("b", 3, math.Inf(1))
	demand := p.AddConstraint(Constraint{Coefs: []Coef{{a, 1}, {b, 1}}, Sense: GE, RHS: 10})
	sol, err := p.SolveOpts(boundedOpts())
	if err != nil {
		t.Fatal(err)
	}
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

// TestMethodsAgree is the central cross-check: the bounded tableau and the
// bounds-as-rows reference must produce identical objectives on randomized
// bound-rich problems, and every optimal result of either must pass the KKT
// certificate. Only the reference may fail, and only with its own
// errRefSingularBasis.
func TestMethodsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nv := 1 + rng.Intn(7)
		nc := rng.Intn(6)
		p := NewProblem()
		for j := 0; j < nv; j++ {
			u := math.Inf(1)
			if rng.Intn(3) > 0 { // bounds dominate
				u = rng.Float64() * 10
			}
			p.AddVariable("v", rng.NormFloat64()*3, u)
		}
		for i := 0; i < nc; i++ {
			var coefs []Coef
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
		bounded, err := p.SolveOpts(Options{Method: MethodDense})
		if err == nil && bounded.Status == Optimal {
			err = CheckKKT(p, bounded)
		}
		if err != nil {
			t.Errorf("seed %d: dense: %v", seed, err)
			return false
		}
		rows, err := solveRows(p, Options{})
		if err != nil {
			// The reference's Bᵀy = c_B solve may meet a singular basis
			// on redundant rows; the dense kernel reads its duals off the
			// carried row and cannot.
			return errors.Is(err, errRefSingularBasis)
		}
		if rows.Status != bounded.Status {
			return false
		}
		if rows.Status != Optimal {
			return true
		}
		scale := 1 + math.Abs(rows.Objective)
		if math.Abs(rows.Objective-bounded.Objective) > 1e-6*scale {
			return false
		}
		if err := CheckKKT(p, rows); err != nil {
			t.Errorf("seed %d: reference: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestBoundedDualsAgree compares dual values between methods on problems
// with unique optima.
func TestBoundedDualsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 60; trial++ {
		nv := 2 + rng.Intn(4)
		p := NewProblem()
		for j := 0; j < nv; j++ {
			p.AddVariable("v", 0.5+rng.Float64()*4, 1+rng.Float64()*9)
		}
		nc := 1 + rng.Intn(3)
		for i := 0; i < nc; i++ {
			coefs := make([]Coef, nv)
			for j := 0; j < nv; j++ {
				coefs[j] = Coef{j, 0.2 + rng.Float64()}
			}
			p.AddConstraint(Constraint{Coefs: coefs, Sense: GE, RHS: 1 + rng.Float64()*3})
		}
		r1, err1 := solveRows(p, Options{})
		r2, err2 := p.SolveOpts(Options{Method: MethodDense})
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: err1=%v err2=%v", trial, err1, err2)
		}
		if r1.Status != Optimal || r2.Status != Optimal {
			continue
		}
		// Strong duality must hold for the bounded method too.
		dualObj := 0.0
		for i, row := range p.rows {
			dualObj += r2.Duals[i] * row.RHS
		}
		for j := 0; j < nv; j++ {
			dualObj += r2.BoundDuals[j] * p.upper[j]
		}
		if math.Abs(dualObj-r2.Objective) > 1e-6*(1+math.Abs(r2.Objective)) {
			t.Fatalf("trial %d: bounded strong duality violated: primal %v dual %v",
				trial, r2.Objective, dualObj)
		}
	}
}

func TestMethodString(t *testing.T) {
	if MethodAuto.String() != "auto" || MethodDense.String() != "dense" {
		t.Fatal("method strings wrong")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method should render")
	}
}

// TestAutoIsBounded covers the shapes the retired Auto heuristic (fewer
// than 8 bounds, or no more bounds than rows) sent to the rows method: Auto
// now solves them on the bounded tableau, bit for bit, exports a basis, and
// agrees with the rows reference.
func TestAutoIsBounded(t *testing.T) {
	tiny := func() *Problem {
		// min −2x − y s.t. x + y ≤ 4, x ≤ 3, y ≤ 10 → x = 3, y = 1.
		p := NewProblem()
		x := p.AddVariable("x", -2, 3)
		y := p.AddVariable("y", -1, 10)
		p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: LE, RHS: 4})
		return p
	}
	relaxation := func() *Problem {
		// The LP relaxation of a 0/1 selection: three [0,1] columns and
		// four rows across all senses, as branch and bound solves it.
		p := NewProblem()
		a := p.AddVariable("a", -5, 1)
		b := p.AddVariable("b", -4, 1)
		c := p.AddVariable("c", -3, 1)
		p.AddConstraint(Constraint{Coefs: []Coef{{a, 2}, {b, 3}, {c, 1}}, Sense: LE, RHS: 5})
		p.AddConstraint(Constraint{Coefs: []Coef{{a, 4}, {b, 1}, {c, 2}}, Sense: LE, RHS: 6})
		p.AddConstraint(Constraint{Coefs: []Coef{{a, 1}, {b, 1}, {c, 1}}, Sense: GE, RHS: 1})
		p.AddConstraint(Constraint{Coefs: []Coef{{a, 1}, {c, -1}}, Sense: EQ, RHS: 0})
		return p
	}
	for _, c := range []struct {
		name  string
		build func() *Problem
	}{
		{"1-row-2-var", tiny},
		{"milp-relaxation", relaxation},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := c.build()
			bounds := 0
			for _, u := range p.upper {
				if !math.IsInf(u, 1) {
					bounds++
				}
			}
			if bounds >= 8 && bounds > len(p.rows) {
				t.Fatal("shape is one the retired heuristic already sent to the bounded tableau")
			}
			auto, err := p.SolveOpts(Options{})
			if err != nil {
				t.Fatal(err)
			}
			bounded, err := p.SolveOpts(Options{Method: MethodDense})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(auto, bounded) {
				t.Fatalf("auto %+v differs from bounded %+v", auto, bounded)
			}
			if auto.Status != Optimal || auto.Basis() == nil {
				t.Fatalf("status %v, basis %v: want an optimal solve with a basis", auto.Status, auto.Basis())
			}
			if err := CheckKKT(p, auto); err != nil {
				t.Fatal(err)
			}
			ref, err := solveRows(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Status != Optimal || !approx(auto.Objective, ref.Objective, eps) {
				t.Fatalf("objective %v, reference %v (%v)", auto.Objective, ref.Objective, ref.Status)
			}
			for j := range ref.X {
				if !approx(auto.X[j], ref.X[j], eps) {
					t.Fatalf("x[%d] = %v, reference %v", j, auto.X[j], ref.X[j])
				}
			}
			for i := range ref.Duals {
				if !approx(auto.Duals[i], ref.Duals[i], eps) {
					t.Fatalf("dual[%d] = %v, reference %v", i, auto.Duals[i], ref.Duals[i])
				}
			}
			for j := range ref.BoundDuals {
				if !approx(auto.BoundDuals[j], ref.BoundDuals[j], eps) {
					t.Fatalf("bound dual[%d] = %v, reference %v", j, auto.BoundDuals[j], ref.BoundDuals[j])
				}
			}
		})
	}
}

func TestBoundedDegenerateBeale(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", -0.75, math.Inf(1))
	y := p.AddVariable("y", 150, math.Inf(1))
	z := p.AddVariable("z", -0.02, math.Inf(1))
	w := p.AddVariable("w", 6, math.Inf(1))
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 0.25}, {y, -60}, {z, -0.04}, {w, 9}}, Sense: LE, RHS: 0})
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 0.5}, {y, -90}, {z, -0.02}, {w, 3}}, Sense: LE, RHS: 0})
	p.AddConstraint(Constraint{Coefs: []Coef{{z, 1}}, Sense: LE, RHS: 1})
	sol, err := p.SolveOpts(boundedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, -0.05, eps) {
		t.Fatalf("Beale: status=%v obj=%v, want optimal -0.05", sol.Status, sol.Objective)
	}
}
