// Warm-start support for the dense bounded tableau.
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
// Both re-entries refactorize the basis against the perturbed matrix and
// recompute the basic values; they differ in what they do when those values
// break the perturbed bounds:
//
//   - The dense bounded tableau (MethodAuto and MethodBounded; this file)
//     refactorizes by Gauss-Jordan with partial pivoting and requires
//     primal feasibility. It falls back to the cold two-phase method when
//     the basis is singular, dimensionally incompatible or primal
//     infeasible, or when the warm phase 2 ends Unbounded or at the
//     iteration limit.
//   - MethodRevised above its dense crossover (revised.go; below it the
//     whole solve, warm start included, is the dense tableau's)
//     refactorizes by sparse LU and repairs primal infeasibility with a
//     bounded dual simplex, which a pure bound change (an outage) never
//     makes dual infeasible. It falls back when the basis is singular or
//     dimensionally incompatible; when it is neither primal nor dual
//     feasible; when the dual ratio test is empty (the problem is
//     infeasible, and the cold path says so); on a tiny dual pivot, a
//     numerical failure or the iteration limit; or when the primal finish
//     ends Unbounded.
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

// solveBoundedWarm attempts a phase-2-only solve from the supplied basis.
// The boolean reports whether the warm attempt produced a usable outcome;
// false sends the caller down the cold path (the tableau it mutated is
// discarded, so a failed warm attempt leaves no residue).
func solveBoundedWarm(p *Problem, opts Options, g *guard) (*Solution, error, bool) {
	mWarmAttempts.Inc()
	t := newBoundedTableau(p, opts)
	defer t.release()
	t.g = g
	if !t.applyWarmBasis(opts.WarmStart) {
		return nil, nil, false
	}
	st := t.simplex(t.cost)
	switch st {
	case statusAborted:
		return nil, p.solveErr("lp.pivot", Optimal, t.iters, g.err), true
	case Canceled, DeadlineExceeded:
		sol := &Solution{Status: st, Iterations: t.iters, WarmStarted: true}
		return sol, nil, true
	case Optimal:
		// Proceed to extraction below.
	default:
		// Unbounded or IterationLimit from a stale basis: distrust it and
		// re-derive from a cold start (a genuinely unbounded problem is
		// unbounded from any start, so correctness is unaffected).
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
// matrix, and the basic values are recomputed and checked for primal
// feasibility under the current bounds. Returns false when the basis cannot
// be applied; the tableau must then be discarded.
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
			// and the upper clamp below plus the primal feasibility check
			// pin it there. Rejecting such bases made nearly half of all
			// structurally identical re-solves fall back to the cold path
			// (the lp.warm_fallbacks regression; see
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

	// Primal feasibility under the perturbed bounds, with the same
	// scale-aware tolerance the cold phase 1 uses.
	scale := 1.0
	for _, v := range t.rhs {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	eps := t.tol * scale * float64(t.m+1) * 100
	for i := 0; i < t.m; i++ {
		v := t.rhs[i]
		if v < -eps {
			return false
		}
		u := t.upper[t.basis[i]]
		if !math.IsInf(u, 1) && v > u+eps {
			return false
		}
		if v < 0 {
			t.rhs[i] = 0
		} else if v > u {
			t.rhs[i] = u
		}
	}
	return true
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
