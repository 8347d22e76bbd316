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

// CertifySolves runs CheckKKT on every Optimal result SolveOpts returns and
// hands fn the problem and the verdict (nil when certified), until the
// returned function is called. It affects every solve while installed, so
// tests that use it must not run in parallel.
func CertifySolves(fn func(p *Problem, err error)) (restore func()) {
	return ObserveSolves(func(p *Problem, sol *Solution) {
		if sol.Status == Optimal {
			fn(p, CheckKKT(p, sol))
		}
	})
}

// ObserveSolves hands fn the problem and solution of every solve SolveOpts
// returns without error, until the returned function is called. It affects
// every solve while installed, so tests that use it must not run in
// parallel.
func ObserveSolves(fn func(p *Problem, sol *Solution)) (restore func()) {
	old := solveObserver
	solveObserver = fn
	return func() { solveObserver = old }
}

// PricingState is what a pricing hook sees after one pivot or bound flip of
// the dense bounded simplex.
type PricingState struct {
	Iter    int       // pivots and flips so far in this solve
	Phase1  bool      // minimizing the artificial sum, not the real objective
	Carried []float64 // the live carried reduced-cost row: writes reach the solver
	Fresh   []float64 // the same row priced from scratch at the same basis
	Basis   []int     // the live basic column of each row
	Status  []int8    // the live per-column status (at lower, at upper, basic)
}

// SetPricingHook installs fn to run after every pivot and bound flip of the
// dense bounded simplex — both phases and warm re-entry — and returns a
// function restoring the previous hook. Every bounded solve calls the hook
// while it is installed, so tests that use it must not run in parallel.
func SetPricingHook(fn func(PricingState)) (restore func()) {
	old := pricingHook
	pricingHook = func(s *simplex, c []float64) {
		k, ok := s.k.(*denseKernel)
		if !ok {
			return
		}
		fresh := make([]float64, s.nTotal)
		k.reducedCosts(c, fresh)
		fn(PricingState{
			Iter:    s.iters,
			Phase1:  &c[0] != &s.cost[0],
			Carried: k.d[:s.nTotal],
			Fresh:   fresh,
			Basis:   s.basis,
			Status:  s.status,
		})
	}
	return func() { pricingHook = old }
}

// UseReferenceKernel makes the dense bounded simplex pivot and price with
// the full-row reference kernel below instead of the nonzero-only one, and
// returns a function restoring the production kernel. It affects every
// bounded solve while installed, so tests that use it must not run in
// parallel.
func UseReferenceKernel() (restore func()) {
	oldPivot, oldEntering := pivotOverride, enteringOverride
	pivotOverride, enteringOverride = referencePivot, referenceEntering
	return func() { pivotOverride, enteringOverride = oldPivot, oldEntering }
}

// referencePivot is the full-row Gauss-Jordan pivot: it scales and
// eliminates every column of the tableau and of the carried row.
func referencePivot(k *denseKernel, row, col int) {
	piv := k.a[row][col]
	inv := 1 / piv
	ar := k.a[row]
	for j := 0; j < k.nTotal; j++ {
		ar[j] *= inv
	}
	for i := 0; i < k.m; i++ {
		if i == row {
			continue
		}
		f := k.a[i][col]
		if f == 0 {
			continue
		}
		ai := k.a[i]
		for j := 0; j < k.nTotal; j++ {
			ai[j] -= f * ar[j]
		}
	}
	if f := k.d[col]; f != 0 {
		for j := 0; j < k.nTotal; j++ {
			k.d[j] -= f * ar[j]
		}
	}
	k.d[col] = 0
}

// referenceEntering is the pricing loop that reads each column's status
// and bound before its reduced cost.
func referenceEntering(k *denseKernel, bland bool) (enter int, enterDir float64) {
	enter = -1
	enterDir = 1
	best := tol
	for j := 0; j < k.nTotal; j++ {
		if k.status[j] == inBasis {
			continue
		}
		if k.upper[j] == 0 && k.status[j] == atLower {
			continue
		}
		r := k.d[j]
		var imp float64
		var dir float64
		if k.status[j] == atLower && r < 0 {
			imp, dir = -r, 1
		} else if k.status[j] == atUpper && r > 0 {
			imp, dir = r, -1
		} else {
			continue
		}
		if imp > best {
			best = imp
			enter = j
			enterDir = dir
			if bland {
				break
			}
		}
	}
	return enter, enterDir
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

// WarmFallbacks reads the lp.warm_fallbacks counter: warm attempts the
// solver rejected into the cold two-phase path.
func WarmFallbacks() int64 { return mWarmFallbacks.Value() }

// WarmSolves reads the lp.warm_solves counter: solves that finished on the
// warm path.
func WarmSolves() int64 { return mWarmSolves.Value() }

// RevisedFactorizations reads the lp.revised.factorizations counter: LU
// factorizations the sparse kernel performed.
func RevisedFactorizations() int64 { return mRevFactorizations.Value() }

// RevisedRefactorTriggers reads the lp.revised.refactor_triggers counter:
// mid-solve refactorizations of the sparse kernel.
func RevisedRefactorTriggers() int64 { return mRevRefactorTriggers.Value() }

// UncachedCopy returns a copy of b that has cached no factorization yet.
func UncachedCopy(b *Basis) *Basis {
	return &Basis{n: b.n, m: b.m, nTotal: b.nTotal, rows: b.rows, status: b.status, matrix: b.matrix}
}

// CachedFactors reports which of b's factorizations have been built.
func CachedFactors(b *Basis) (dense, sparse bool) { return b.dense.f != nil, b.lu.f != nil }
