package lp

import (
	"context"
	"math"
	"testing"

	"cpsguard/internal/rng"
)

// cutBounds returns GenRandomProblem(seed) with a seeded third of its
// upper bounds cut to zero — the outage shape of perturbation, which moves
// only bounds and so keeps the parent's optimal basis dual feasible.
func cutBounds(seed uint64) *Problem {
	p := GenRandomProblem(seed)
	rs := rng.New(seed ^ 0xD0A1)
	for j := 0; j < p.NumVariables(); j++ {
		if rs.Intn(3) == 0 {
			p.SetUpper(j, 0)
		}
	}
	return p
}

// dualMethods are the two warm re-entries the dual-phase battery covers:
// the dense bounded tableau and the sparse revised solver (with its dense
// crossover forced off by forceSparseExtract).
var dualMethods = []Method{MethodDense, MethodAuto}

// dualPhase runs only method m's warm re-entry dual phase of p from b and
// reports its status and pivot count. A dual phase that pivots to Optimal
// must leave the basis optimal, not merely primal feasible: it starts dual
// feasible and its pivots keep every reduced cost on its feasible side, so
// a fresh pricing pass at the final basis finds no improving column.
func dualPhase(t *testing.T, m Method, p *Problem, b *Basis) (Status, int) {
	t.Helper()
	s := newSimplex(p, Options{}, newGuard(Options{}), m == MethodAuto)
	defer s.k.release()
	if !s.applyWarmBasis(b) {
		t.Fatal("basis rejected")
	}
	st, iters := s.dual(), s.iters
	d, status, upper := s.k.dualPrices(), s.status, s.upper
	if st == Optimal && iters > 0 {
		for j, dj := range d {
			if movable(status[j], upper[j]) && (status[j] == atLower && dj < -1e-7 || status[j] == atUpper && dj > 1e-7) {
				t.Errorf("%v dual phase lost dual feasibility: column %d (status %d) has d = %v", m, j, status[j], dj)
				break
			}
		}
	}
	return st, iters
}

// checkFeasible asserts x satisfies p's bounds and rows to tol (scaled).
func checkFeasible(t *testing.T, label string, p *Problem, x []float64) {
	t.Helper()
	const tol = 1e-7
	for j, v := range x {
		if u := p.upper[j]; v < -tol || v > u+tol*math.Max(1, u) {
			t.Errorf("%s: x[%d] = %v outside [0, %v]", label, j, v, u)
		}
	}
	for i, row := range p.rows {
		lhs, mag := 0.0, math.Abs(row.RHS)
		for _, co := range row.Coefs {
			lhs += co.Value * x[co.Var]
			mag += math.Abs(co.Value * x[co.Var])
		}
		slack := tol * math.Max(1, mag)
		if row.Sense == LE && lhs > row.RHS+slack ||
			row.Sense == GE && lhs < row.RHS-slack ||
			row.Sense == EQ && math.Abs(lhs-row.RHS) > slack {
			t.Errorf("%s: row %d: %v %v %v", label, i, lhs, row.Sense, row.RHS)
		}
	}
}

// TestDualReentryRandomBoundCuts is the seeded battery for the dual
// re-entry of both methods: random LPs of every size (forced through the
// sparse solver under MethodAuto), upper bounds cut to zero, each
// re-solved warm from the uncut optimal basis and cold. Warm and cold agree
// on status, on the optimum and on primal feasibility; every warm optimum
// passes the KKT certificate; at least nine in ten solvable cuts stay warm,
// and every dual phase that pivots ends at an optimal basis.
func TestDualReentryRandomBoundCuts(t *testing.T) {
	forceSparseExtract(t)
	for _, m := range dualMethods {
		solvable, warm, repaired := 0, 0, 0
		for seed := uint64(0); seed < 3000; seed++ {
			base, err := GenRandomProblem(seed).SolveOpts(Options{Method: m})
			if err != nil || base.Status != Optimal {
				continue
			}
			p := cutBounds(seed)
			cold, errC := p.SolveOpts(Options{Method: m})
			w, errW := p.SolveOpts(Options{Method: m, WarmStart: base.Basis()})
			if errC != nil || errW != nil {
				t.Errorf("%v seed %d: cold err=%v warm err=%v", m, seed, errC, errW)
				continue
			}
			if w.Status != cold.Status {
				t.Errorf("%v seed %d: status warm %v, cold %v", m, seed, w.Status, cold.Status)
				continue
			}
			if cold.Status != Optimal {
				continue
			}
			solvable++
			if w.WarmStarted {
				warm++
			}
			scale := math.Max(1, math.Abs(cold.Objective))
			if math.Abs(w.Objective-cold.Objective) > 1e-9*scale {
				t.Errorf("%v seed %d: objective warm %v, cold %v", m, seed, w.Objective, cold.Objective)
			}
			checkFeasible(t, "warm", p, w.X)
			if err := CheckKKT(p, w); err != nil {
				t.Errorf("%v seed %d: warm optimum: %v", m, seed, err)
			}
			if st, n := dualPhase(t, m, p, base.Basis()); st == Optimal && n > 0 {
				repaired++
			}
		}
		t.Logf("%v: %d solvable: %d re-entered warm, %d through dual pivots", m, solvable, warm, repaired)
		if solvable < 600 || repaired < 100 {
			t.Fatalf("%v: battery too weak: %d solvable, %d through dual pivots", m, solvable, repaired)
		}
		if warm < solvable*9/10 {
			t.Fatalf("%v: only %d of %d solvable cuts re-entered warm", m, warm, solvable)
		}
	}
}

// TestDualReentryGuards covers the dual phase's exits other than success,
// for both methods.
func TestDualReentryGuards(t *testing.T) {
	forceSparseExtract(t)

	// A cost change can make the warm basis dual infeasible. Alone it
	// leaves the basis primal feasible, so the primal phase finishes warm;
	// together with a bound cut neither phase can start, and the solve
	// falls back cold. Either way it must agree with a cold solve.
	t.Run("cost-change", func(t *testing.T) {
		for _, m := range dualMethods {
			notDual := 0
			for seed := uint64(0); seed < 1500; seed++ {
				base, err := GenRandomProblem(seed).SolveOpts(Options{Method: m})
				if err != nil || base.Status != Optimal {
					continue
				}
				for _, cut := range []bool{false, true} {
					p := GenRandomProblem(seed)
					if cut {
						p = cutBounds(seed)
					}
					rs := rng.New(seed ^ 0xC057)
					for j := 0; j < p.NumVariables(); j++ {
						if rs.Intn(2) == 0 {
							p.SetCost(j, -p.Cost(j))
						}
					}
					st, _ := dualPhase(t, m, p, base.Basis())
					if st == statusNotDualFeasible {
						notDual++
					}
					cold, errC := p.SolveOpts(Options{Method: m})
					w, errW := p.SolveOpts(Options{Method: m, WarmStart: base.Basis()})
					if errC != nil || errW != nil {
						continue
					}
					if w.Status != cold.Status {
						t.Fatalf("%v seed %d cut=%v: status warm %v, cold %v", m, seed, cut, w.Status, cold.Status)
					}
					if cold.Status != Optimal {
						continue
					}
					if !cut && !w.WarmStarted {
						t.Errorf("%v seed %d: cost-only change fell back cold", m, seed)
					}
					if st == statusNotDualFeasible && w.WarmStarted {
						t.Errorf("%v seed %d: basis neither primal nor dual feasible stayed warm", m, seed)
					}
					scale := math.Max(1, math.Abs(cold.Objective))
					if math.Abs(w.Objective-cold.Objective) > 1e-9*scale {
						t.Fatalf("%v seed %d cut=%v: objective warm %v, cold %v", m, seed, cut, w.Objective, cold.Objective)
					}
					checkFeasible(t, "warm", p, w.X)
					if err := CheckKKT(p, w); err != nil {
						t.Errorf("%v seed %d cut=%v: warm optimum: %v", m, seed, cut, err)
					}
				}
			}
			if notDual < 50 {
				t.Fatalf("%v: only %d bases neither primal nor dual feasible; guard untested", m, notDual)
			}
		}
	})

	// Tightening x and y below what x + y ≥ 3 needs leaves no feasible
	// point: the dual ratio test comes up empty and the cold path returns
	// its Infeasible verdict.
	t.Run("infeasible", func(t *testing.T) {
		build := func(ux, uy float64) *Problem {
			p := NewProblem()
			x := p.AddVariable("x", 1, ux)
			y := p.AddVariable("y", 2, uy)
			p.AddConstraint(Constraint{Coefs: []Coef{{x, 1}, {y, 1}}, Sense: GE, RHS: 3})
			return p
		}
		for _, m := range dualMethods {
			base, err := build(4, 4).SolveOpts(Options{Method: m})
			if err != nil || base.Status != Optimal {
				t.Fatalf("%v base: %v %v", m, statusOr(base), err)
			}
			if st, _ := dualPhase(t, m, build(1, 1), base.Basis()); st != Infeasible {
				t.Fatalf("%v dual phase status %v, want Infeasible", m, st)
			}
			sol, err := build(1, 1).SolveOpts(Options{Method: m, WarmStart: base.Basis()})
			if err != nil || sol.Status != Infeasible || sol.WarmStarted {
				t.Fatalf("%v: status %v warm=%v err=%v, want a cold Infeasible", m, statusOr(sol), sol != nil && sol.WarmStarted, err)
			}
		}
	})

	// Cancellation inside the dual phase surfaces as Canceled on the warm
	// path, carrying the pivots made so far (mirrors cancel_test.go).
	t.Run("cancel", func(t *testing.T) {
	methods:
		for _, m := range dualMethods {
			for seed := uint64(0); seed < 3000; seed++ {
				base, err := GenRandomProblem(seed).SolveOpts(Options{Method: m})
				if err != nil || base.Status != Optimal {
					continue
				}
				if st, n := dualPhase(t, m, cutBounds(seed), base.Basis()); st != Optimal || n < 3 {
					continue
				}
				ctx, cancel := context.WithCancel(context.Background())
				calls := 0
				hook := func(site string) error {
					if site == "lp.pivot" {
						if calls++; calls == 2 {
							cancel()
						}
					}
					return nil
				}
				sol, err := cutBounds(seed).SolveOpts(Options{
					Method: m, WarmStart: base.Basis(), Ctx: ctx, Hook: hook, CheckEvery: 1,
				})
				cancel()
				if err != nil {
					t.Fatalf("%v seed %d: err = %v", m, seed, err)
				}
				if sol.Status != Canceled || !sol.WarmStarted || sol.Iterations != 2 {
					t.Fatalf("%v seed %d: status %v warm=%v iterations %d, want Canceled warm after 2",
						m, seed, sol.Status, sol.WarmStarted, sol.Iterations)
				}
				continue methods
			}
			t.Fatalf("%v: no seed needs three dual pivots", m)
		}
	})
}

func statusOr(sol *Solution) Status {
	if sol == nil {
		return Status(-99)
	}
	return sol.Status
}
