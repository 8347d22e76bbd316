package lp

import (
	"errors"
	"math"
	"testing"

	"cpsguard/internal/rng"
)

// kernelNames names each method's kernel in subtest names.
var kernelNames = map[Method]string{MethodDense: "bounded", MethodAuto: "revised"}

// forceSparseExtract makes the revised method run its sparse solver on
// instances of every size for the duration of one test.
func forceSparseExtract(t *testing.T) {
	t.Helper()
	old := revisedFinishMaxRows
	revisedFinishMaxRows = -1
	t.Cleanup(func() { revisedFinishMaxRows = old })
}

// TestWarmStartDegenerateArtificialBasis is the lp.warm_fallbacks
// regression: degenerate dispatch optima legitimately finish with an
// artificial basic at value zero (a redundant conservation row, say), and
// the warm path used to reject every such basis — so a structurally
// identical re-solve permanently fell back to the cold two-phase method
// (164 of 344 warm attempts in BENCH_warmstart.json). The tightened check
// accepts a basic artificial (its bound is clamped to zero and the primal
// feasibility check pins it there) and the re-solve must stay warm with a
// bit-identical optimum.
func TestWarmStartDegenerateArtificialBasis(t *testing.T) {
	// A redundant EQ pair: after phase 1 drives one artificial out, the
	// dependent row's artificial has no pivot to leave on and stays basic
	// at zero.
	build := func() *Problem {
		p := NewProblem()
		x := p.AddVariable("x", -1, 4)
		y := p.AddVariable("y", -2, 4)
		p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: EQ, RHS: 3})
		p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: EQ, RHS: 3})
		return p
	}
	for _, m := range []Method{MethodDense, MethodAuto} {
		t.Run(kernelNames[m], func(t *testing.T) {
			cold, err := build().SolveOpts(Options{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			if cold.Status != Optimal {
				t.Fatalf("cold status %v", cold.Status)
			}
			b := cold.Basis()
			if b == nil {
				t.Fatal("no basis exported")
			}
			// The regression is only meaningful if the captured basis
			// really contains an artificial column.
			f := newForm(build())
			hasArt := false
			for _, col := range b.rows {
				if f.art[col] {
					hasArt = true
				}
			}
			if !hasArt {
				t.Fatal("fixture no longer produces a basic artificial; regression test is vacuous")
			}
			warm, err := build().SolveOpts(Options{Method: m, WarmStart: b})
			if err != nil {
				t.Fatal(err)
			}
			if !warm.WarmStarted {
				t.Fatal("structurally identical re-solve fell back to the cold path")
			}
			if warm.Objective != cold.Objective {
				t.Fatalf("warm objective %v != cold %v (want bit-identical)", warm.Objective, cold.Objective)
			}
			for j := range cold.X {
				if warm.X[j] != cold.X[j] {
					t.Fatalf("warm X[%d]=%v != cold %v (want bit-identical)", j, warm.X[j], cold.X[j])
				}
			}
		})
	}
}

// TestWarmStartIdenticalResolveNeverFallsBack is the tightened stale-basis
// property: re-solving the exact same problem from its own optimal basis
// must take the warm path, for every problem in the seeded battery and for
// both bounded-layout methods.
func TestWarmStartIdenticalResolveNeverFallsBack(t *testing.T) {
	for _, m := range []Method{MethodDense, MethodAuto} {
		t.Run(kernelNames[m], func(t *testing.T) {
			fellBack := 0
			for seed := uint64(0); seed < 120; seed++ {
				p := GenRandomProblem(seed)
				cold, err := p.SolveOpts(Options{Method: m})
				if err != nil || cold.Status != Optimal || cold.Basis() == nil {
					continue
				}
				warm, err := GenRandomProblem(seed).SolveOpts(Options{Method: m, WarmStart: cold.Basis()})
				if err != nil {
					t.Fatalf("seed %d: warm re-solve error: %v", seed, err)
				}
				if !warm.WarmStarted {
					fellBack++
					t.Errorf("seed %d: identical re-solve fell back", seed)
				}
			}
			if fellBack > 0 {
				t.Fatalf("%d identical re-solves fell back", fellBack)
			}
		})
	}
}

// TestRevisedCyclingBland pins anti-cycling behavior on two classic
// examples that loop forever under naive Dantzig pivoting, on the dense
// oracle and the revised method alike — including the revised method's
// sparse extraction path. The Harris ratio test's largest-pivot choice
// already breaks Beale's cycle (optimum −1/20); Kuhn's still cycles under
// it, so there the automatic no-progress Bland switch must fire and finish
// at the optimum (−2).
func TestRevisedCyclingBland(t *testing.T) {
	forceSparseExtract(t)
	inf := math.Inf(1)
	beale := func() *Problem {
		p := NewProblem()
		x1 := p.AddVariable("x1", -0.75, inf)
		x2 := p.AddVariable("x2", 150, inf)
		x3 := p.AddVariable("x3", -0.02, 1)
		x4 := p.AddVariable("x4", 6, inf)
		p.AddConstraint(Constraint{Coefs: []Coef{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, Sense: LE, RHS: 0})
		p.AddConstraint(Constraint{Coefs: []Coef{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, Sense: LE, RHS: 0})
		return p
	}
	kuhn := func() *Problem {
		p := NewProblem()
		x1 := p.AddVariable("x1", -2, inf)
		x2 := p.AddVariable("x2", -3, inf)
		x3 := p.AddVariable("x3", 1, inf)
		x4 := p.AddVariable("x4", 12, inf)
		p.AddConstraint(Constraint{Coefs: []Coef{{x1, -2}, {x2, -9}, {x3, 1}, {x4, 9}}, Sense: LE, RHS: 0})
		p.AddConstraint(Constraint{Coefs: []Coef{{x1, 1.0 / 3}, {x2, 1}, {x3, -1.0 / 3}, {x4, -2}}, Sense: LE, RHS: 0})
		p.AddConstraint(Constraint{Coefs: []Coef{{x1, 2}, {x2, 3}, {x3, -1}, {x4, -12}}, Sense: LE, RHS: 2})
		return p
	}
	cases := []struct {
		name  string
		build func() *Problem
		want  float64
		bland bool
	}{
		{"beale", beale, -0.05, false},
		{"kuhn", kuhn, -2, true},
	}
	for _, c := range cases {
		for _, m := range []Method{MethodDense, MethodAuto} {
			switches := mBlandSwitch.Value()
			sol, err := c.build().SolveOpts(Options{Method: m})
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, m, err)
			}
			if sol.Status != Optimal || math.Abs(sol.Objective-c.want) > 1e-9 {
				t.Fatalf("%s %v: status %v, objective %v; want optimal, %v", c.name, m, sol.Status, sol.Objective, c.want)
			}
			if fired := mBlandSwitch.Value() > switches; fired != c.bland {
				t.Errorf("%s %v: Bland switch fired = %v, want %v", c.name, m, fired, c.bland)
			}
		}
	}
}

// TestRevisedDegeneratePivots drives the revised method through a heavily
// degenerate vertex (many ties at zero) and cross-checks the dense oracle.
func TestRevisedDegeneratePivots(t *testing.T) {
	forceSparseExtract(t)
	p := func() *Problem {
		p := NewProblem()
		x := p.AddVariable("x", -1, 10)
		y := p.AddVariable("y", -1, 10)
		z := p.AddVariable("z", -1, 10)
		// All three constraints intersect at the origin-adjacent vertex.
		p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: LE, RHS: 0})
		p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {z, 1}}, Sense: LE, RHS: 0})
		p.AddConstraint(Constraint{Coefs: []Coef{{y, 1}, {z, 1}}, Sense: LE, RHS: 0})
		return p
	}
	dense, err := p().SolveOpts(Options{Method: MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := p().SolveOpts(Options{Method: MethodAuto})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Status != rev.Status {
		t.Fatalf("status mismatch: dense %v revised %v", dense.Status, rev.Status)
	}
	if math.Abs(dense.Objective-rev.Objective) > 1e-9 {
		t.Fatalf("objective mismatch: dense %v revised %v", dense.Objective, rev.Objective)
	}
}

// TestNumericalFallbackSolvesDense makes the sparse kernel report a
// singular eta update on a problem above the dense crossover. The solve must
// hand the problem to a cold solve on the dense kernel, not back to the size
// rule (which would pick the sparse kernel again), and finish at the dense
// kernel's optimum.
func TestNumericalFallbackSolvesDense(t *testing.T) {
	build := func() *Problem {
		p := NewProblem()
		n := revisedFinishMaxRows + 1
		for j := 0; j < n; j++ {
			p.AddVariable("x", -1-float64(j%7), math.Inf(1))
		}
		for i := 0; i < n; i++ {
			p.AddConstraint(Constraint{Coefs: []Coef{{i, 1}, {(i + 1) % n, 1}}, Sense: LE, RHS: 1 + float64(i%3)})
		}
		return p
	}
	dense, err := build().SolveOpts(Options{Method: MethodDense})
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	failUpdate = func() bool {
		first := !failed
		failed = true
		return first
	}
	defer func() { failUpdate = nil }()
	solves, fallbacks := mRevSolves.Value(), mRevDenseFallbacks.Value()
	sol, err := build().SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("the solve never reached a sparse eta update")
	}
	if d := mRevDenseFallbacks.Value() - fallbacks; d != 1 {
		t.Errorf("lp.revised.dense_fallbacks rose by %d, want 1", d)
	}
	if d := mRevSolves.Value() - solves; d != 1 {
		t.Errorf("lp.revised.solves rose by %d, want 1: the fallback re-entered the sparse kernel", d)
	}
	if sol.Status != Optimal || sol.Objective != dense.Objective || sol.Iterations <= dense.Iterations {
		t.Errorf("fallback solve: %v, objective %v, %d pivots; want Optimal, %v (the dense kernel's), more than its %d",
			sol.Status, sol.Objective, sol.Iterations, dense.Objective, dense.Iterations)
	}
}

// FuzzRevisedSimplex cross-checks the revised method against the dense
// oracle on fuzzer-evolved random LPs, with the sparse extraction path
// forced, and verifies hostile NaN/Inf inputs are rejected with
// ErrBadProblem rather than panicking — the revised analogue of
// FuzzSolveAgreement + FuzzHostileInputs.
func FuzzRevisedSimplex(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(7), uint8(0b1010))
	f.Add(uint64(42), uint8(0xFF))
	f.Add(uint64(1234567), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, poison uint8) {
		old := revisedFinishMaxRows
		revisedFinishMaxRows = -1
		defer func() { revisedFinishMaxRows = old }()

		p := GenRandomProblem(seed)
		if poison != 0 {
			// Corrupt one numeric field with NaN/±Inf; validation must
			// reject identically on both methods, without panicking.
			rs := rng.New(seed ^ uint64(poison))
			hostile := [3]float64{math.NaN(), math.Inf(1), math.Inf(-1)}
			v := hostile[rs.Intn(3)]
			q := NewProblem()
			field := rs.Intn(3)
			corrupted := false
			for j := range p.obj {
				c, u := p.obj[j], p.upper[j]
				if field == 0 && poison&1 != 0 {
					c = v
					corrupted = true
				}
				if field == 1 && poison&2 != 0 {
					u = v
					// +Inf is a legal (unbounded-above) upper bound.
					corrupted = corrupted || !math.IsInf(v, 1)
				}
				q.AddVariable("v", c, u)
			}
			for _, row := range p.rows {
				rhs := row.RHS
				if field == 2 && poison&4 != 0 && len(p.rows) > 0 {
					rhs = v
					corrupted = true
				}
				q.AddConstraint(Constraint{Coefs: row.Coefs, Sense: row.Sense, RHS: rhs})
			}
			if corrupted {
				_, errD := q.SolveOpts(Options{Method: MethodDense})
				_, errR := q.SolveOpts(Options{Method: MethodAuto})
				if !errors.Is(errD, ErrBadProblem) || !errors.Is(errR, ErrBadProblem) {
					t.Fatalf("corrupted problem accepted: dense err=%v revised err=%v", errD, errR)
				}
				return
			}
			p = q
		}

		dense, errD := p.SolveOpts(Options{Method: MethodDense})
		rev, errR := p.SolveOpts(Options{Method: MethodAuto})
		if errD != nil || errR != nil {
			// Reported errors (e.g. singular dual extraction on degenerate
			// bases) are tolerated; panics are not, and the harness catches
			// those.
			return
		}
		if dense.Status != rev.Status {
			t.Fatalf("status mismatch: dense %v revised %v", dense.Status, rev.Status)
		}
		if dense.Status != Optimal {
			return
		}
		scale := 1 + math.Abs(dense.Objective)
		if math.Abs(dense.Objective-rev.Objective) > 1e-7*scale {
			t.Fatalf("objective mismatch: dense %v revised %v", dense.Objective, rev.Objective)
		}
	})
}
