// Warm-start support: basis export and the warm re-entry of the simplex,
// for both kernels.
//
// The evaluation workloads of this repository solve thousands of dispatch
// LPs that differ from a baseline by a handful of edge perturbations
// (capacity outages, cost or loss tweaks). Structure — variables, rows,
// column layout — is identical across the family; only objective
// coefficients, bounds, and constraint entries move. Solution.Basis()
// exports the optimal basis of a solved problem, and Options.WarmStart
// re-enters phase 2 of a later solve directly from that basis:
//
//	base, _ := p.SolveOpts(lp.Options{})
//	perturbed.SolveOpts(lp.Options{WarmStart: base.Basis()})
//
// The re-entry factors the basis, recomputes the basic values under the
// perturbed bounds, and then runs two phases:
//
//   - A bounded dual simplex repairs primal infeasibility. A perturbation
//     that only moves bounds (an outage cutting a capacity to zero) leaves
//     the parent's optimal basis dual feasible while its basic values break
//     their new bounds; each dual pivot moves the worst violation out of the
//     basis onto the bound it broke. A basis that is already primal
//     feasible (a cost edit) skips this phase.
//   - The primal simplex then finishes from the repaired basis, and its
//     fresh pricing pass confirms optimality.
//
// The re-entry, its structural checks and the dual phase below belong to
// the simplex (simplex.go) and serve both kernels. Only the linear algebra
// is the kernel's: the dense tableau (bounded.go) factors by Gauss-Jordan
// with partial pivoting and reads each dual pivot row straight off the
// tableau; the sparse revised kernel (revised.go; above the dense
// crossover) factors by sparse LU and computes the pivot row by BTRAN.
//
// A basis factors itself once against the constraint matrix it was
// captured from. Every Variant of one Problem shares its constraint rows,
// so a capacity or cost edit re-solved from the baseline basis meets the
// same matrix: the first such warm solve factors the basis and stores the
// result on it (the dense kernel B⁻¹A's nonzeros, B⁻¹b, the pivot-order
// basis rows and the reduced-cost row of its cost vector; the sparse
// kernel its LU factors), and every later one reuses it. Each stored value
// is exactly what a refactorization would recompute from the same bits, so
// reuse moves no output bit; only the at-upper offsets, which read the
// solve's own bounds, are redone per solve. A basis applied to any other
// matrix (a loss edit compiles new rows) is factored from scratch.
//
// The re-entry falls back to the cold two-phase method when the basis is
// singular or dimensionally incompatible; when it is neither primal nor dual
// feasible; when the dual ratio test is empty (the problem is infeasible,
// and the cold path says so); on a tiny dual pivot or a numerical failure
// of the LU factors; on the iteration limit; or when the primal finish ends
// Unbounded.
//
// Either way a warm-started solve is never less correct than a cold one —
// only cheaper when the basis survives. Solution.WarmStarted reports which
// path produced the result, and the lp.warm_*/lp.cold_pivots counters
// attribute pivot work to each path.
//
// Both kernels share the standard-form column layout by construction, so
// every optimal solve exports a basis and bases transfer freely between
// them; a basis with mismatched dimensions is rejected into the cold path
// rather than erroring.
package lp

import (
	"math"
	"sync"
)

// Basis is an exported simplex basis: which columns are basic and at which
// bound every nonbasic column rests. Its columns and statuses never change
// after creation, and it is safe to share across concurrent solves.
//
// It also caches its factorization against the constraint matrix of the
// problem it was captured from, one per kernel, built by the first warm
// solve on that matrix (concurrent first users wait for it) and read-only
// afterwards. On the dense kernel that costs about 12 bytes per nonzero of
// B⁻¹A plus four row-sized and two column-sized vectors (~12 KB for the
// stressed westgrid dispatch, 56 rows by 186 columns); on the sparse
// kernel it is the LU factors. A basis never used as a warm start on its
// own matrix caches nothing. The cache assumes what Variant already
// requires: the shared constraint rows do not change while the basis is in
// use.
type Basis struct {
	n      int // structural variables
	m      int // constraint rows
	nTotal int // total columns incl. slack/artificial
	rows   []int
	status []int8

	// matrix is the first constraint row of the problem the basis was
	// captured from (nil without rows). Variants share it, so it
	// identifies that problem's constraint matrix.
	matrix *Constraint
	dense  factorCache[denseFactor]
	lu     factorCache[luFactor]
}

// factorCache is a Basis's factorization for one kernel, built once.
type factorCache[F any] struct {
	once sync.Once
	f    *F
}

// get returns the cached factorization, running build on first use; later
// callers wait for that first one. A nil result (a singular basis) is
// cached too, so later callers go cold without retrying.
func (c *factorCache[F]) get(build func() *F) *F {
	c.once.Do(func() { c.f = build() })
	return c.f
}

// ownMatrix reports whether s solves the constraint matrix b was captured
// from, on which b's cached factorizations hold.
func (s *simplex) ownMatrix(b *Basis) bool {
	return b.matrix != nil && b.matrix == firstRow(s.p)
}

// firstRow is p's first constraint row, nil when it has none.
func firstRow(p *Problem) *Constraint {
	if len(p.rows) == 0 {
		return nil
	}
	return &p.rows[0]
}

// Size returns the (rows, columns) dimensions the basis was extracted from.
func (b *Basis) Size() (rows, cols int) { return b.m, b.nTotal }

// Basis returns the optimal basis of a solved problem, or nil when the
// solve did not finish at an optimal basis. Reuse it freely across
// concurrent warm-started solves.
func (s *Solution) Basis() *Basis { return s.basis }

// captureBasis snapshots the final basis for reuse.
func (s *simplex) captureBasis() *Basis {
	return &Basis{
		n:      s.n,
		m:      s.m,
		nTotal: s.nTotal,
		rows:   append([]int(nil), s.basis...),
		status: append([]int8(nil), s.status...),
		matrix: firstRow(s.p),
	}
}

// solveWarm re-enters a solve at the supplied basis: refactorization, the
// bounded dual simplex back to primal feasibility, then the primal simplex
// to a freshly priced optimum. The boolean reports whether the warm attempt
// produced a usable outcome; false sends the caller down the cold path (the
// state it mutated is discarded, so a failed warm attempt leaves no
// residue).
func solveWarm(p *Problem, opts Options, g *guard, sparse bool) (*Solution, error, bool) {
	mWarmAttempts.Inc()
	s := newSimplex(p, opts, g, sparse, true)
	defer s.k.release()
	if !s.applyWarmBasis(opts.WarmStart) {
		return nil, nil, false
	}
	st := s.dual()
	if st == Optimal {
		st = s.primal(s.cost)
	}
	switch st {
	case statusAborted:
		return nil, p.solveErr("lp.pivot", Optimal, s.iters, g.err), true
	case Canceled, DeadlineExceeded:
		sol := &Solution{Status: st, Iterations: s.iters, WarmStarted: true}
		return sol, nil, true
	case Optimal:
		// Proceed to extraction below.
	default:
		// The dual phase could not start or finish (basis not dual
		// feasible, empty ratio test, tiny pivot, iteration limit,
		// numerical failure), or the primal phase ended Unbounded or at
		// the iteration limit: distrust the basis and re-derive from a
		// cold start, which also owns the Infeasible verdict.
		mWarmPivots.Add(int64(s.iters))
		return nil, nil, false
	}
	sol := s.extract()
	mWarmSolves.Inc()
	sol.WarmStarted = true
	return sol, nil, true
}

// applyWarmBasis reconstitutes the solver at the supplied basis: statuses
// are restored, the basis is factored against the (possibly perturbed)
// matrix, and the basic values are recomputed under the current bounds. It
// rejects only structurally unusable bases; basic values outside their
// perturbed bounds are dual's to repair. Returns false when the basis
// cannot be applied; the solver must then be discarded.
func (s *simplex) applyWarmBasis(b *Basis) bool {
	if b == nil || b.n != s.n || b.m != s.m || b.nTotal != s.nTotal ||
		len(b.rows) != s.m || len(b.status) != s.nTotal {
		return false
	}
	inBasisCount := 0
	for j, st := range b.status {
		switch st {
		case inBasis:
			// A basic artificial is fine: degenerate dispatch optima
			// legitimately finish with an artificial basic at value zero,
			// and the upper clamp below pins it there (the dual phase
			// pivots out one that the perturbation made positive).
			// Rejecting such bases made nearly half of all structurally
			// identical re-solves fall back to the cold path (see
			// TestWarmStartDegenerateArtificialBasis).
			inBasisCount++
		case atUpper:
			// An artificial is clamped to [0, 0] below, where at upper
			// is at lower: a degenerate optimum may leave one there.
			if math.IsInf(s.upper[j], 1) && !s.art[j] {
				return false // bound vanished; the status is meaningless
			}
		case atLower:
			// Always valid (lower bounds are fixed at zero).
		default:
			return false
		}
	}
	if inBasisCount != s.m {
		return false
	}
	seen := make([]bool, s.nTotal)
	for _, col := range b.rows {
		if col < 0 || col >= s.nTotal || b.status[col] != inBasis || seen[col] {
			return false
		}
		seen[col] = true
	}
	copy(s.status, b.status)
	// Artificials never re-enter a warm phase 2.
	s.clampArtificials()
	return s.k.refactorAt(b)
}

// dual is the warm re-entry's bounded dual simplex. A perturbation that
// only moves bounds — an outage cutting a capacity to zero — leaves the
// reduced costs of the parent's optimal basis untouched, so the basis stays
// dual feasible while its basic values break their new bounds. It checks
// dual feasibility once (one full pricing pass), then repeatedly takes the
// basic variable with the largest bound violation out at that bound: the
// kernel supplies its pivot row α = e_rᵀB⁻¹A, dualRatio picks the entering
// column, and the entering column's image w moves the basic values exactly
// as in the primal loop, while the kernel carries the reduced costs across
// the pivot, so every one stays on its feasible side.
//
// It returns Optimal once the basis is primal feasible (at once, without
// pricing, when it already was), with the basic values clamped into their
// bounds; the caller finishes with the primal simplex, whose fresh pricing
// confirms optimality. Any other status sends the caller to the cold path:
// statusNotDualFeasible, Infeasible (empty ratio test: no vertex satisfies
// the violated row), statusNumerical, IterationLimit, or a cancellation.
func (s *simplex) dual() Status {
	r := leavingRow(s.x, s.basis, s.upper)
	if r < 0 {
		return Optimal
	}
	d := s.k.dualPrices()
	if !dualFeasible(d, s.status, s.upper) {
		return statusNotDualFeasible
	}
	for ; r >= 0; r = leavingRow(s.x, s.basis, s.upper) {
		if s.iters >= s.max {
			return IterationLimit
		}
		if s.g.due(s.iters) {
			if st, stop := s.g.at("lp.pivot"); stop {
				return st
			}
		}
		leaveCol := s.basis[r]
		toUpper := s.x[r] > 0 // above its upper bound; else below zero
		target := 0.0
		if toUpper {
			target = s.upper[leaveCol]
		}
		alpha := s.k.pivotRow(r)
		enter := dualRatio(alpha, d, s.status, s.upper, toUpper)
		if enter < 0 {
			return Infeasible
		}
		s.k.column(enter)
		// w_r is α_q computed the other way round; a sparse kernel whose
		// two disagree on the pivot is numerically lost. (On the dense
		// kernel they are the same number, and dualRatio already required
		// |α_q| > tol.)
		wr := s.w[r]
		if math.Abs(wr) < tol || wr*alpha[enter] <= 0 {
			return statusNumerical
		}

		// Primal step: x_enter moves by step, which lands x_r on its bound.
		step := (s.x[r] - target) / wr
		enterValue := step
		if s.status[enter] == atUpper {
			enterValue += s.upper[enter]
		}
		s.move(1, step)
		s.iters++
		if toUpper && s.upper[leaveCol] > 0 {
			s.status[leaveCol] = atUpper
		} else {
			s.status[leaveCol] = atLower
		}
		s.basis[r] = enter
		s.x[r] = enterValue
		s.status[enter] = inBasis
		if !s.k.dualUpdate(r, enter, leaveCol, alpha, d) {
			return statusNumerical
		}
		if pricingHook != nil {
			pricingHook(s, s.cost)
		}
	}
	return Optimal
}

// movable reports whether a column with the given status and upper bound is
// nonbasic with room to move: basic columns and columns fixed at zero
// (clamped artificials, outaged capacities) never enter a dual pivot.
func movable(status int8, upper float64) bool {
	return status != inBasis && upper != 0
}

// dualFeasible reports whether every movable column's reduced cost d_j sits
// on its optimal side: d_j ≥ −tol at the lower bound, d_j ≤ tol at the upper.
func dualFeasible(d []float64, status []int8, upper []float64) bool {
	for j, st := range status {
		if movable(st, upper[j]) &&
			(st == atLower && d[j] < -tol || st == atUpper && d[j] > tol) {
			return false
		}
	}
	return true
}

// leavingRow returns the row whose basic value x[i] (of column basis[i])
// breaks its bounds [0, upper] by the most, or -1 when the basis is primal
// feasible. Violations within the scale-aware tolerance of the cold phase-1
// verdict (phase1Tol) do not count; on the feasible exit they are clamped
// onto the bound they graze.
func leavingRow(x []float64, basis []int, upper []float64) int {
	scale := 1.0
	for _, v := range x {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	eps := phase1Tol(scale, len(x))
	r, worst := -1, eps
	for i, v := range x {
		viol := -v
		if over := v - upper[basis[i]]; over > viol {
			viol = over
		}
		if viol > worst {
			r, worst = i, viol
		}
	}
	if r >= 0 {
		return r
	}
	for i, v := range x {
		if u := upper[basis[i]]; v < 0 {
			x[i] = 0
		} else if v > u {
			x[i] = u
		}
	}
	return -1
}

// dualRatio is the bounded dual simplex's ratio test on the pivot row alpha
// (e_rᵀB⁻¹A; entries of columns that are not movable are ignored). Among
// the columns whose move pushes the leaving basic value toward the bound it
// broke (its upper bound when toUpper, else zero), the smallest |d_j/α_j|
// keeps every other reduced cost feasible. Ties go to the larger |α_j|,
// then the lower index. Returns -1 when no column qualifies: no vertex
// satisfies the violated row.
func dualRatio(alpha, d []float64, status []int8, upper []float64, toUpper bool) int {
	sgn := -1.0
	if toUpper {
		sgn = 1
	}
	enter := -1
	best, bestAbs := math.Inf(1), 0.0
	for j, a := range alpha {
		if !movable(status[j], upper[j]) {
			continue
		}
		s := sgn * a
		if status[j] == atUpper {
			s = -s
		}
		if s <= tol {
			continue
		}
		ratio := math.Abs(d[j]) / s
		if ratio < best-tol || (ratio < best+tol && s > bestAbs) {
			enter, best, bestAbs = j, ratio, s
		}
	}
	return enter
}
