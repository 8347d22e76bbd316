// Warm-start support: basis export and warm re-entry for both simplex
// methods.
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
// Both re-entries refactorize the basis against the perturbed matrix,
// recompute the basic values, and then run the same two phases:
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
// The dense bounded tableau (MethodAuto and MethodBounded; this file)
// refactorizes by Gauss-Jordan with partial pivoting and reads each dual
// pivot row straight off the tableau. MethodRevised above its dense
// crossover (revised.go; below it the whole solve, warm start included, is
// the dense tableau's) refactorizes by sparse LU and computes the pivot row
// by BTRAN. The two share the leaving-row scan (leavingRow), the dual ratio
// test (dualRatio) and the dual feasibility check (dualFeasible) below.
//
// Either re-entry falls back to the cold two-phase method when the basis is
// singular or dimensionally incompatible; when it is neither primal nor dual
// feasible; when the dual ratio test is empty (the problem is infeasible,
// and the cold path says so); on the iteration limit; or when the primal
// finish ends Unbounded. The revised one also falls back on a tiny dual
// pivot or a numerical failure of its LU factors.
//
// Either way a warm-started solve is never less correct than a cold one —
// only cheaper when the basis survives. Solution.WarmStarted reports which
// path produced the result, and the lp.warm_*/lp.cold_pivots counters
// attribute pivot work to each path.
//
// Both methods share the standard-form column layout by construction, so
// every optimal solve exports a basis and bases transfer freely between
// them; a basis with mismatched dimensions is rejected into the cold path
// rather than erroring.
package lp

import "math"

// Basis is an exported simplex basis: which columns are basic and at which
// bound every nonbasic column rests. It is immutable after creation and safe
// to share across concurrent solves.
type Basis struct {
	n      int // structural variables
	m      int // constraint rows
	nTotal int // total columns incl. slack/artificial
	rows   []int
	status []int8
}

// Size returns the (rows, columns) dimensions the basis was extracted from.
func (b *Basis) Size() (rows, cols int) { return b.m, b.nTotal }

// Basis returns the optimal basis of a solved problem, or nil when the
// solve did not finish at an optimal basis. The result is immutable; reuse
// it freely across concurrent warm-started solves.
func (s *Solution) Basis() *Basis { return s.basis }

// captureBasis snapshots the bounded tableau's final basis for reuse.
func (t *boundedTableau) captureBasis() *Basis {
	return &Basis{
		n:      t.n,
		m:      t.m,
		nTotal: t.nTotal,
		rows:   append([]int(nil), t.basis...),
		status: append([]int8(nil), t.status...),
	}
}

// solveBoundedWarm re-enters a dense bounded solve at the supplied basis:
// refactorization, the bounded dual simplex back to primal feasibility, then
// the primal simplex to a freshly priced optimum. The boolean reports
// whether the warm attempt produced a usable outcome; false sends the caller
// down the cold path (the tableau it mutated is discarded, so a failed warm
// attempt leaves no residue).
func solveBoundedWarm(p *Problem, opts Options, g *guard) (*Solution, error, bool) {
	mWarmAttempts.Inc()
	t := newBoundedTableau(p, opts)
	defer t.release()
	t.g = g
	if !t.applyWarmBasis(opts.WarmStart) {
		return nil, nil, false
	}
	st := t.dualSimplex()
	if st == Optimal {
		st = t.simplex(t.cost)
	}
	switch st {
	case statusAborted:
		return nil, p.solveErr("lp.pivot", Optimal, t.iters, g.err), true
	case Canceled, DeadlineExceeded:
		sol := &Solution{Status: st, Iterations: t.iters, WarmStarted: true}
		return sol, nil, true
	case Optimal:
		// Proceed to extraction below.
	default:
		// The dual phase could not start or finish (basis not dual
		// feasible, empty ratio test, iteration limit), or the primal
		// phase ended Unbounded or at the iteration limit: distrust the
		// basis and re-derive from a cold start, which also owns the
		// Infeasible verdict.
		mWarmPivots.Add(int64(t.iters))
		return nil, nil, false
	}
	sol, err := t.extract(p)
	if err != nil {
		// e.g. a singular basis during dual extraction; the cold path may
		// land on a better-conditioned optimal basis.
		mWarmPivots.Add(int64(t.iters))
		return nil, nil, false
	}
	mWarmSolves.Inc()
	sol.WarmStarted = true
	return sol, nil, true
}

// applyWarmBasis reconstitutes the tableau at the supplied basis: statuses
// are restored, the basis is refactorized against the (possibly perturbed)
// matrix, and the basic values are recomputed under the current bounds. It
// rejects only structurally unusable bases; basic values outside their
// perturbed bounds are dualSimplex's to repair. Returns false when the basis
// cannot be applied; the tableau must then be discarded.
func (t *boundedTableau) applyWarmBasis(b *Basis) bool {
	if b == nil || b.n != t.n || b.m != t.m || b.nTotal != t.nTotal ||
		len(b.rows) != t.m || len(b.status) != t.nTotal {
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
			if math.IsInf(t.upper[j], 1) {
				return false // bound vanished; the status is meaningless
			}
		case atLower:
			// Always valid (lower bounds are fixed at zero).
		default:
			return false
		}
	}
	if inBasisCount != t.m {
		return false
	}
	seen := make([]bool, t.nTotal)
	for _, col := range b.rows {
		if col < 0 || col >= t.nTotal || b.status[col] != inBasis || seen[col] {
			return false
		}
		seen[col] = true
	}

	// Refactorize: Gauss-Jordan the basis columns to unit vectors with
	// partial (largest-entry) pivoting over the not-yet-assigned rows. On
	// exit a = B⁻¹A and rhs = B⁻¹b. A pivot smaller than tolerance means
	// the basis is singular for the perturbed matrix.
	assigned := make([]bool, t.m)
	for _, col := range b.rows {
		row, rowAbs := -1, t.tol
		for i := 0; i < t.m; i++ {
			if assigned[i] {
				continue
			}
			if ab := math.Abs(t.a[i][col]); ab > rowAbs {
				row, rowAbs = i, ab
			}
		}
		if row < 0 {
			return false
		}
		t.refactorPivot(row, col)
		t.basis[row] = col
		assigned[row] = true
	}

	copy(t.status, b.status)
	// Artificials never re-enter a warm phase 2.
	for j, isArt := range t.art {
		if isArt {
			t.upper[j] = 0
		}
	}
	// Nonbasic-at-upper columns contribute their (current) bound value.
	for j, st := range t.status {
		if st != atUpper {
			continue
		}
		if u := t.upper[j]; u != 0 {
			for i := 0; i < t.m; i++ {
				t.rhs[i] -= t.a[i][j] * u
			}
		}
	}
	return true
}

// dualSimplex is the dense tableau's bounded dual simplex, the twin of
// revisedSolver.dualSimplex: the pivot row is the tableau row of the leaving
// basic variable, and pivot's elimination of the carried row d is exactly
// the dual step d −= (d_q/α_q)·α. It returns Optimal once the basis is
// primal feasible (at once, without pricing, when it already was), with the
// basic values clamped into their bounds. Any other status sends the caller
// to the cold path: statusNotDualFeasible, Infeasible (empty ratio test),
// IterationLimit, or a cancellation.
func (t *boundedTableau) dualSimplex() Status {
	r := leavingRow(t.rhs, t.basis, t.upper, t.tol)
	if r < 0 {
		return Optimal
	}
	d := t.d[:t.nTotal]
	t.reducedCosts(t.cost, d)
	if !dualFeasible(d, t.status, t.upper, t.tol) {
		return statusNotDualFeasible
	}
	for ; r >= 0; r = leavingRow(t.rhs, t.basis, t.upper, t.tol) {
		if t.iters >= t.max {
			return IterationLimit
		}
		if t.g.due(t.iters) {
			if st, stop := t.g.at("lp.pivot"); stop {
				return st
			}
		}
		leaveCol := t.basis[r]
		toUpper := t.rhs[r] > 0 // above its upper bound; else below zero
		alpha := t.a[r][:t.nTotal]
		enter := dualRatio(alpha, d, t.status, t.upper, toUpper, t.tol)
		if enter < 0 {
			return Infeasible
		}
		// Primal step: x_enter moves by step, which lands x_r on its bound.
		target := 0.0
		if toUpper {
			target = t.upper[leaveCol]
		}
		step := (t.rhs[r] - target) / alpha[enter]
		enterValue := step
		if t.status[enter] == atUpper {
			enterValue += t.upper[enter]
		}
		t.move(enter, 1, step)
		t.iters++
		if toUpper && t.upper[leaveCol] > 0 {
			t.status[leaveCol] = atUpper
		} else {
			t.status[leaveCol] = atLower
		}
		t.pivot(r, enter, enterValue)
		t.status[enter] = inBasis
		if pricingHook != nil {
			pricingHook(t, t.cost)
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
func dualFeasible(d []float64, status []int8, upper []float64, tol float64) bool {
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
// verdict do not count; on the feasible exit they are clamped onto the
// bound they graze.
func leavingRow(x []float64, basis []int, upper []float64, tol float64) int {
	scale := 1.0
	for _, v := range x {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	eps := tol * scale * float64(len(x)+1) * 100
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
func dualRatio(alpha, d []float64, status []int8, upper []float64, toUpper bool, tol float64) int {
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

// refactorPivot performs a Gauss-Jordan elimination step on both the matrix
// and the rhs (which therefore tracks B⁻¹b, unlike boundedTableau.pivot,
// whose rhs stores basic values).
func (t *boundedTableau) refactorPivot(row, col int) {
	inv := 1 / t.a[row][col]
	ar := t.a[row]
	for j := 0; j < t.nTotal; j++ {
		ar[j] *= inv
	}
	t.rhs[row] *= inv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ai := t.a[i]
		for j := 0; j < t.nTotal; j++ {
			ai[j] -= f * ar[j]
		}
		t.rhs[i] -= f * t.rhs[row]
	}
}
