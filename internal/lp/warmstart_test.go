package lp

import (
	"math"
	"testing"

	"cpsguard/internal/rng"
)

// dispatchLikeProblem builds a small bounded LP shaped like the flow
// dispatch problems (cost minimization over capacity-bounded variables with
// coupling rows) for warm-start tests.
func dispatchLikeProblem() *Problem {
	p := NewProblem()
	p.AddVariable("f0", 1.0, 4)  // cheap line
	p.AddVariable("f1", 2.5, 3)  // expensive line
	p.AddVariable("g", -6.0, 10) // generation surplus value
	p.AddConstraint(Constraint{Coefs: []Coef{{0, 1}, {1, 1}, {2, -1}}, Sense: EQ, RHS: 0})
	p.AddConstraint(Constraint{Coefs: []Coef{{0, 1}, {1, 1}}, Sense: LE, RHS: 5})
	return p
}

func solveBoth(t *testing.T, p *Problem, b *Basis) (warm, cold *Solution) {
	t.Helper()
	warm, err := p.SolveOpts(Options{Method: MethodDense, WarmStart: b})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	cold, err = p.SolveOpts(Options{Method: MethodDense})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	return warm, cold
}

// TestWarmStartResolve re-solves an unchanged problem from its own optimal
// basis: the warm path must accept the basis, perform zero pivots, and
// reproduce the optimum.
func TestWarmStartResolve(t *testing.T) {
	p := dispatchLikeProblem()
	base, err := p.SolveOpts(Options{Method: MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	if base.Status != Optimal {
		t.Fatalf("base status %v", base.Status)
	}
	if base.Basis() == nil {
		t.Fatal("optimal bounded solve exported no basis")
	}
	re, err := p.SolveOpts(Options{Method: MethodDense, WarmStart: base.Basis()})
	if err != nil {
		t.Fatal(err)
	}
	if !re.WarmStarted {
		t.Fatal("re-solve from own basis fell back to cold")
	}
	if re.Iterations != 0 {
		t.Fatalf("re-solve from optimal basis pivoted %d times", re.Iterations)
	}
	if math.Abs(re.Objective-base.Objective) > 1e-9 {
		t.Fatalf("objective drifted: warm %v cold %v", re.Objective, base.Objective)
	}
	for j := range base.X {
		if math.Abs(re.X[j]-base.X[j]) > 1e-9 {
			t.Fatalf("x[%d] drifted: warm %v cold %v", j, re.X[j], base.X[j])
		}
	}
}

// TestWarmStartPerturbations applies outage-shaped perturbations (cost
// bumps, capacity cuts including to zero, RHS shifts) and checks the warm
// solve agrees with cold within 1e-9 on objective and primals.
func TestWarmStartPerturbations(t *testing.T) {
	base, err := dispatchLikeProblem().SolveOpts(Options{Method: MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	b := base.Basis()

	cases := []struct {
		name    string
		perturb func(p *Problem)
	}{
		{"cost-bump", func(p *Problem) { p.SetCost(0, 2.9) }},
		{"capacity-cut", func(p *Problem) { p.SetUpper(0, 1.5) }},
		{"full-outage", func(p *Problem) { p.SetUpper(0, 0) }},
		{"both-lines-out", func(p *Problem) { p.SetUpper(0, 0); p.SetUpper(1, 0) }},
		{"cheaper-alt", func(p *Problem) { p.SetCost(1, 0.5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := dispatchLikeProblem()
			tc.perturb(p)
			warm, cold := solveBoth(t, p, b)
			if warm.Status != cold.Status {
				t.Fatalf("status: warm %v cold %v", warm.Status, cold.Status)
			}
			if warm.Status != Optimal {
				return
			}
			if math.Abs(warm.Objective-cold.Objective) > 1e-9 {
				t.Fatalf("objective: warm %v cold %v", warm.Objective, cold.Objective)
			}
			for j := range cold.X {
				if math.Abs(warm.X[j]-cold.X[j]) > 1e-9 {
					t.Fatalf("x[%d]: warm %v cold %v", j, warm.X[j], cold.X[j])
				}
			}
		})
	}
}

// TestWarmStartStaleBasisFallsBack feeds deliberately unusable bases and
// requires a silent cold fallback with correct results.
func TestWarmStartStaleBasisFallsBack(t *testing.T) {
	base, err := dispatchLikeProblem().SolveOpts(Options{Method: MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	good := base.Basis()

	t.Run("dimension-mismatch", func(t *testing.T) {
		other := NewProblem()
		other.AddVariable("x", -1, 1)
		sol, err := other.SolveOpts(Options{Method: MethodDense, WarmStart: good})
		if err != nil {
			t.Fatal(err)
		}
		if sol.WarmStarted {
			t.Fatal("accepted a basis from a differently shaped problem")
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-(-1)) > 1e-9 {
			t.Fatalf("fallback solve wrong: %v obj %v", sol.Status, sol.Objective)
		}
	})

	t.Run("corrupt-rows", func(t *testing.T) {
		bad := &Basis{n: good.n, m: good.m, nTotal: good.nTotal,
			rows:   make([]int, len(good.rows)),
			status: append([]int8(nil), good.status...)}
		for i := range bad.rows {
			bad.rows[i] = -7
		}
		p := dispatchLikeProblem()
		sol, err := p.SolveOpts(Options{Method: MethodDense, WarmStart: bad})
		if err != nil {
			t.Fatal(err)
		}
		if sol.WarmStarted {
			t.Fatal("accepted corrupt basis rows")
		}
		if sol.Status != Optimal {
			t.Fatalf("fallback status %v", sol.Status)
		}
	})
}

// TestWarmStartRandomAgreement sweeps seeded random problems and
// perturbations: warm-started objectives and primal feasibility must agree
// with cold within 1e-9 scaled, across accepted and fallback paths alike.
func TestWarmStartRandomAgreement(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rs := rng.New(seed)
		p := randomBoundedProblem(rs)
		base, err := p.SolveOpts(Options{Method: MethodDense})
		if err != nil || base.Status != Optimal {
			continue
		}
		q := perturbProblem(p, rs)
		warm, err := q.SolveOpts(Options{Method: MethodDense, WarmStart: base.Basis()})
		if err != nil {
			continue // reported error (e.g. singular dual basis) is acceptable
		}
		cold, err := q.SolveOpts(Options{Method: MethodDense})
		if err != nil || cold.Status != Optimal || warm.Status != Optimal {
			continue
		}
		scale := 1 + math.Abs(cold.Objective)
		if math.Abs(warm.Objective-cold.Objective) > 1e-9*scale {
			t.Fatalf("seed %d: warm %v cold %v (warmstarted=%v)",
				seed, warm.Objective, cold.Objective, warm.WarmStarted)
		}
	}
}

// randomBoundedProblem builds a small random LP with finite bounds on most
// variables, biased toward feasible minimization problems.
func randomBoundedProblem(rs *rng.Stream) *Problem {
	nv := 2 + rs.Intn(6)
	nc := 1 + rs.Intn(4)
	p := NewProblem()
	for j := 0; j < nv; j++ {
		u := math.Inf(1)
		if rs.Intn(4) > 0 {
			u = rs.Float64() * 10
		}
		p.AddVariable("v", (rs.Float64()-0.5)*8, u)
	}
	for i := 0; i < nc; i++ {
		var coefs []Coef
		for j := 0; j < nv; j++ {
			if rs.Intn(2) == 0 {
				coefs = append(coefs, Coef{j, (rs.Float64() - 0.5) * 6})
			}
		}
		if len(coefs) == 0 {
			coefs = append(coefs, Coef{0, 1})
		}
		p.AddConstraint(Constraint{Coefs: coefs, Sense: Sense(rs.Intn(3)), RHS: (rs.Float64() - 0.5) * 10})
	}
	return p
}

// perturbProblem returns a structurally identical copy with small changes
// to costs, bounds, and row data — the shape of change warm starting is for.
func perturbProblem(p *Problem, rs *rng.Stream) *Problem {
	q := NewProblem()
	for j := 0; j < p.NumVariables(); j++ {
		c, u := p.Cost(j), p.Upper(j)
		if rs.Intn(3) == 0 {
			c += (rs.Float64() - 0.5) * 2
		}
		if !math.IsInf(u, 1) && rs.Intn(3) == 0 {
			u *= rs.Float64() * 1.5 // includes cuts to (near) zero
		}
		q.AddVariable(p.VariableName(j), c, u)
	}
	for i := 0; i < p.NumConstraints(); i++ {
		row := p.ConstraintAt(i)
		if rs.Intn(3) == 0 {
			row.RHS += (rs.Float64() - 0.5) * 3
		}
		if len(row.Coefs) > 0 && rs.Intn(3) == 0 {
			k := rs.Intn(len(row.Coefs))
			row.Coefs[k].Value += (rs.Float64() - 0.5)
		}
		q.AddConstraint(row)
	}
	return q
}

// FuzzWarmStart pairs a random problem (whose optimal basis seeds the warm
// start) with a fuzzer-mutated problem and requires the safety contract: a
// warm start from any basis — matching, stale, or from an unrelated problem
// — never panics, never loops (iteration caps hold), and never reports
// Optimal with an objective that disagrees with the cold solve. Modes 3
// and 4 tighten bounds, which drives the dual re-entry: mode 3 re-solves
// under MethodAuto with the dense crossover forced off (the sparse dual
// simplex), mode 4 under MethodDense (the dense one). There the warm
// status must match the dense cold one too, and a warm optimum must pass
// the KKT certificate.
func FuzzWarmStart(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(0))
	f.Add(uint64(7), uint64(7), uint8(1))
	f.Add(uint64(42), uint64(9), uint8(2))
	f.Add(uint64(5), uint64(3), uint8(3))
	f.Add(uint64(11), uint64(4), uint8(4))
	old := revisedFinishMaxRows
	revisedFinishMaxRows = -1
	f.Cleanup(func() { revisedFinishMaxRows = old })
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, mode uint8) {
		rsA := rng.New(seedA)
		donor := randomBoundedProblem(rsA)
		mode %= 5
		method := MethodDense
		if mode == 3 {
			method = MethodAuto
		}
		base, err := donor.SolveOpts(Options{Method: method})
		if err != nil {
			return
		}
		var target *Problem
		switch mode {
		case 0: // same structure, perturbed numbers
			target = perturbProblem(donor, rng.New(seedB))
		case 1: // unrelated problem: dimensions usually mismatch
			target = randomBoundedProblem(rng.New(seedB))
		case 2: // identical problem
			target = donor
		default: // bounds tightened, cut to zero or made finite
			target = tightenBounds(donor, rng.New(seedB))
		}
		warm, errW := target.SolveOpts(Options{Method: method, WarmStart: base.Basis()})
		cold, errC := target.SolveOpts(Options{Method: MethodDense})
		if errW != nil || errC != nil {
			return // reported errors are within contract; panics are not
		}
		if mode >= 3 {
			if warm.Status != cold.Status {
				t.Fatalf("warm status %v, cold %v (warmstarted=%v)", warm.Status, cold.Status, warm.WarmStarted)
			}
			if warm.Status == Optimal {
				if err := CheckKKT(target, warm); err != nil {
					t.Fatalf("warm optimum (warmstarted=%v): %v", warm.WarmStarted, err)
				}
			}
		}
		if warm.Status == Optimal && cold.Status == Optimal {
			scale := 1 + math.Abs(cold.Objective)
			if math.Abs(warm.Objective-cold.Objective) > 1e-5*scale {
				t.Fatalf("warm Optimal diverged: warm %v cold %v (warmstarted=%v)",
					warm.Objective, cold.Objective, warm.WarmStarted)
			}
		}
	})
}

// tightenBounds returns a copy of p with some upper bounds lowered: cut to
// zero, scaled down, or made finite — perturbations that move only bounds.
func tightenBounds(p *Problem, rs *rng.Stream) *Problem {
	q := NewProblem()
	for j := 0; j < p.NumVariables(); j++ {
		u := p.Upper(j)
		switch rs.Intn(4) {
		case 0:
			u = 0
		case 1:
			if math.IsInf(u, 1) {
				u = rs.Float64() * 10
			} else {
				u *= rs.Float64()
			}
		}
		q.AddVariable(p.VariableName(j), p.Cost(j), u)
	}
	for i := 0; i < p.NumConstraints(); i++ {
		q.AddConstraint(p.ConstraintAt(i))
	}
	return q
}

// TestWarmStartArtificialAtUpper is the lp.warm_fallbacks regression for a
// nonbasic artificial at its upper bound. A load stranded behind an empty
// generator is served at zero: phase 2 starts with the artificials basic at
// zero, clamped to [0, 0], and the load's artificial leaves the basis at
// that upper bound. Such a basis used to fall back cold, because the
// artificial's bound reads +Inf before the clamp; at [0, 0] at upper is at
// lower, so its re-solve must stay warm and take no pivot.
func TestWarmStartArtificialAtUpper(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		f := p.AddVariable("f:gen-city", 1, 1)
		x := p.AddVariable("x:city", -4, 4)
		p.AddConstraint(Constraint{Coefs: []Coef{{f, 1}}, Sense: EQ})
		p.AddConstraint(Constraint{Coefs: []Coef{{f, -1}, {x, -1}}, Sense: EQ})
		return p
	}
	forceSparseExtract(t)
	for _, m := range []Method{MethodDense, MethodAuto} {
		t.Run(kernelNames[m], func(t *testing.T) {
			p := build()
			cold, err := p.SolveOpts(Options{Method: m})
			if err != nil || cold.Status != Optimal {
				t.Fatalf("cold solve: %v, %v", cold, err)
			}
			b := cold.Basis()
			art := newForm(p).art
			found := false
			for j, st := range b.status {
				found = found || st == atUpper && art[j]
			}
			if !found {
				t.Fatal("fixture no longer leaves an artificial at upper; the regression test is vacuous")
			}
			for _, q := range []*Problem{p, build()} {
				warm, err := q.SolveOpts(Options{Method: m, WarmStart: b})
				if err != nil {
					t.Fatal(err)
				}
				if !warm.WarmStarted || warm.Iterations != 0 {
					t.Fatalf("re-solve: warm %v after %d pivots, want warm after 0", warm.WarmStarted, warm.Iterations)
				}
				if warm.Objective != cold.Objective {
					t.Fatalf("warm objective %v, cold %v", warm.Objective, cold.Objective)
				}
			}
		})
	}
}

// TestWarmFactorSingularRecorded: a basis singular for its own matrix is
// rejected into the cold path, and the verdict is cached, so a later solve
// rejects it without factoring again.
func TestWarmFactorSingularRecorded(t *testing.T) {
	// Two identical rows: the basis {x, y} is singular.
	p := NewProblem()
	x := p.AddVariable("x", -1, 4)
	y := p.AddVariable("y", -2, 4)
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: LE, RHS: 3})
	p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: LE, RHS: 3})
	forceSparseExtract(t)
	for _, m := range []Method{MethodDense, MethodAuto} {
		t.Run(kernelNames[m], func(t *testing.T) {
			f := newForm(p)
			b := &Basis{n: f.n, m: f.m, nTotal: f.nTotal, rows: []int{x, y},
				status: make([]int8, f.nTotal), matrix: &p.rows[0]}
			b.status[x], b.status[y] = inBasis, inBasis
			for i := 0; i < 2; i++ {
				sol, err := p.Variant().SolveOpts(Options{Method: m, WarmStart: b})
				if err != nil {
					t.Fatal(err)
				}
				if sol.WarmStarted || sol.Status != Optimal {
					t.Fatalf("solve %d: warm %v, status %v; want a cold optimum", i, sol.WarmStarted, sol.Status)
				}
			}
			const msg = "the singular verdict was not cached"
			if m == MethodDense {
				b.dense.get(func() *denseFactor { t.Error(msg); return nil })
			} else {
				b.lu.get(func() *luFactor { t.Error(msg); return nil })
			}
		})
	}
}
