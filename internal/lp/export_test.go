// Test-only exports: hooks the external differential battery (package
// lp_test) uses to steer internals that ordinary callers never touch.
package lp

import (
	"math"

	"cpsguard/internal/rng"
)

// SetRevisedFinishMaxRows overrides the dense crossover and returns the
// previous value. Tests pass -1 to force the sparse solver on instances of
// every size (otherwise small problems are delegated to the dense bounded
// solver), and must restore the old value when done.
func SetRevisedFinishMaxRows(n int) int {
	old := revisedFinishMaxRows
	revisedFinishMaxRows = n
	return old
}

// PricingState is what a pricing hook sees after one pivot or bound flip of
// the dense bounded simplex.
type PricingState struct {
	Iter    int       // pivots and flips so far in this solve
	Phase1  bool      // minimizing the artificial sum, not the real objective
	Carried []float64 // the live carried reduced-cost row: writes reach the solver
	Fresh   []float64 // the same row priced from scratch at the same basis
}

// SetPricingHook installs fn to run after every pivot and bound flip of the
// dense bounded simplex — both phases and warm re-entry — and returns a
// function restoring the previous hook. Every bounded solve calls the hook
// while it is installed, so tests that use it must not run in parallel.
func SetPricingHook(fn func(PricingState)) (restore func()) {
	old := pricingHook
	pricingHook = func(t *boundedTableau, c []float64) {
		fresh := make([]float64, t.nTotal)
		t.reducedCosts(c, fresh)
		fn(PricingState{
			Iter:    t.iters,
			Phase1:  &c[0] != &t.cost[0],
			Carried: t.d[:t.nTotal],
			Fresh:   fresh,
		})
	}
	return func() { pricingHook = old }
}

// GenRandomProblem builds seeded random LP #seed for the differential
// battery: 1–16 variables (a mix of boxed and free-above), 0–12 rows across
// all three senses with both RHS signs, occasional duplicate coefficients
// (exercising the builder's aggregation) and occasional zero upper bounds
// (exercising the fixed-at-zero pricing skip).
func GenRandomProblem(seed uint64) *Problem {
	rs := rng.New(seed)
	nv := 1 + rs.Intn(16)
	nc := rs.Intn(13)
	p := NewProblem()
	for j := 0; j < nv; j++ {
		u := math.Inf(1)
		switch rs.Intn(16) {
		case 0:
			// Unbounded above (rare: with a negative cost this makes the
			// whole LP unbounded unless a row caps it).
		case 1, 2:
			if rs.Intn(4) == 0 {
				u = 0 // fixed at zero
			} else {
				u = rs.Float64() * 3
			}
		default:
			u = rs.Float64() * 15
		}
		p.AddVariable("v", (rs.Float64()-0.5)*10, u)
	}
	for i := 0; i < nc; i++ {
		var coefs []Coef
		for j := 0; j < nv; j++ {
			if rs.Intn(3) == 0 {
				coefs = append(coefs, Coef{j, (rs.Float64() - 0.5) * 8})
				if rs.Intn(10) == 0 {
					// Duplicate (row, var) entry: must aggregate.
					coefs = append(coefs, Coef{j, (rs.Float64() - 0.5) * 2})
				}
			}
		}
		if len(coefs) == 0 {
			coefs = append(coefs, Coef{rs.Intn(nv), 1 + rs.Float64()})
		}
		// Senses drawn with a bias toward LE; the RHS is drawn inside the
		// row's individually-achievable range so most instances are
		// feasible and bounded — the interesting differential cases —
		// while joint conflicts still produce some infeasible ones and
		// rare unbounded-above variables some unbounded ones, keeping
		// taxonomy coverage.
		lo, hi := 0.0, 0.0
		for _, co := range coefs {
			reach := p.upper[co.Var]
			if math.IsInf(reach, 1) {
				reach = 15
			}
			if v := co.Value * reach; v > 0 {
				hi += v
			} else {
				lo += v
			}
		}
		var sense Sense
		switch r := rs.Intn(10); {
		case r < 6:
			sense = LE
		case r < 8:
			sense = GE
		default:
			sense = EQ
		}
		rhs := lo + (0.05+0.9*rs.Float64())*(hi-lo)
		p.AddConstraint(Constraint{Coefs: coefs, Sense: sense, RHS: rhs})
	}
	return p
}
