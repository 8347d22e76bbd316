// The dense tableau kernel of the bounded simplex (simplex.go): what
// MethodAuto runs at or below the dense crossover, and MethodDense at every
// size.
//
// It keeps B⁻¹A for every column as a dense tableau, updated by one
// Gauss-Jordan pivot per basis change, and carries the reduced-cost row
// through each pivot instead of re-pricing (the simplex confirms every
// verdict against a fresh pricing pass). Each pivot eliminates only the
// columns where the normalized pivot row is nonzero (~45 of 186 on the
// stressed westgrid dispatch), which leaves the tableau bit-identical to a
// full-row sweep. The duals are read off the carried row at the optimum,
// which the simplex has just priced afresh.
//
// Results (objective, primal values, row duals, bound duals) agree with an
// independent bounds-as-rows reference tableau to solver tolerance; that
// reference lives in rows_reference_test.go, and TestMethodsAgree in
// bounded_test.go is the cross-check.
package lp

import (
	"math"
	"sync"
)

// denseKernel is the dense tableau: a holds B⁻¹A for all columns and d the
// carried reduced-cost row c − c_Bᵀ(B⁻¹A) of the current primal or dual
// phase.
type denseKernel struct {
	*simplex
	a [][]float64
	d []float64

	backing []float64 // storage of a, d and the simplex's w, returned to backingPool by release
	nz      []int32   // pivot's nonzero-column buffer, returned to nzPool by release
}

// backingPool recycles tableau storage (*[]float64) between solves. A
// figure sweep solves thousands of same-sized dispatch LPs back to back;
// without reuse each one allocates a fresh tableau, and the faster the
// pivots run, the faster that garbage arrives and the higher the
// process's peak RSS climbs.
var backingPool sync.Pool

// getBacking returns a zeroed slice of length n, reusing pooled storage
// when it is large enough.
func getBacking(n int) []float64 {
	if b, ok := backingPool.Get().(*[]float64); ok && cap(*b) >= n {
		s := (*b)[:n]
		clear(s)
		return s
	}
	return make([]float64, n)
}

// nzPool recycles pivot's nonzero-column index buffers (*[]int32) the same
// way, so a figure sweep does not allocate one per solve.
var nzPool sync.Pool

// getNZ returns an empty index buffer with capacity at least n.
func getNZ(n int) []int32 {
	if b, ok := nzPool.Get().(*[]int32); ok && cap(*b) >= n {
		return (*b)[:0]
	}
	return make([]int32, 0, n)
}

// newDense loads the tableau of s's form. One zeroed slice, reused across
// solves through backingPool, holds the m tableau rows, the carried
// reduced-cost row and the simplex's column image w.
func newDense(s *simplex) *denseKernel {
	maxCols := s.n + 2*s.m
	k := &denseKernel{simplex: s, a: make([][]float64, s.m)}
	k.backing = getBacking((s.m+1)*maxCols + s.m)
	for i := range k.a {
		k.a[i] = k.backing[i*maxCols : (i+1)*maxCols]
	}
	k.d = k.backing[s.m*maxCols : (s.m+1)*maxCols]
	s.w = k.backing[(s.m+1)*maxCols:]
	k.nz = getNZ(maxCols)
	loadMatrix(s.p, s.form, func(i, j int, v float64) { k.a[i][j] += v })
	return k
}

// release hands the tableau's storage back to backingPool and nzPool. The
// kernel must not be used afterwards; nothing a solve returns refers to it
// (extract allocates the Solution's slices and captureBasis copies).
func (k *denseKernel) release() {
	b, nz := k.backing, k.nz
	k.backing, k.a, k.d, k.w, k.nz = nil, nil, nil, nil, nil
	backingPool.Put(&b)
	nzPool.Put(&nz)
}

// reprice prices every column from scratch into the carried row.
func (k *denseKernel) reprice(c []float64) { k.reducedCosts(c, k.d) }

// reducedCosts prices every column from scratch into d:
// d_j = c_j − c_Bᵀ (B⁻¹A)_j. Rows are accumulated in basis order, so each
// d_j sums its terms in the same order a per-column loop would.
func (k *denseKernel) reducedCosts(c, d []float64) {
	d = d[:k.nTotal]
	copy(d, c)
	for i, bc := range k.basis {
		cb := c[bc]
		if cb == 0 {
			continue
		}
		ai := k.a[i][:len(d)]
		for j, v := range ai {
			d[j] -= cb * v
		}
	}
}

// enteringOverride, when non-nil, replaces price. Only tests set it
// (export_test.go keeps the reference scan the production one is checked
// against); it is nil in every other solve.
var enteringOverride func(k *denseKernel, bland bool) (enter int, enterDir float64)

// price offers the columns to the entering rule from the carried row. A
// column improves by |d_j|, so one not above the best so far is skipped
// before its status and bound are read.
func (k *denseKernel) price(_ []float64, bland bool) (int, float64) {
	if enteringOverride != nil {
		return enteringOverride(k, bland)
	}
	e := newPick(bland)
	status, upper := k.status, k.upper
	for j, r := range k.d[:k.nTotal] {
		if math.Abs(r) > e.best && canEnter(status[j], upper[j]) && e.offer(j, status[j], r) {
			break
		}
	}
	return e.enter, e.dir
}

// column copies tableau column j into w.
func (k *denseKernel) column(j int) {
	w := k.w
	for i, ai := range k.a {
		w[i] = ai[j]
	}
}

// pivotOverride, when non-nil, replaces the pivot kernel. Only tests set it
// (export_test.go keeps the full-row reference kernel the nonzero-only one
// is checked against); it is nil in every other solve.
var pivotOverride func(k *denseKernel, row, col int)

// update pivots column col into row `row`.
func (k *denseKernel) update(row, col int) bool {
	k.pivot(row, col)
	return true
}

// pivot performs the Gauss-Jordan elimination making column col basic in
// row `row`, on the tableau and the carried row. The basic values x belong to
// the simplex; a pivot leaves them alone.
//
// Only the columns where the normalized pivot row is nonzero are
// eliminated: elsewhere the update would subtract f·0, which leaves every
// nonzero entry as it is, so the result is bit-identical to a full-row sweep
// (a zero entry may differ in sign only) at a fraction of the work.
func (k *denseKernel) pivot(row, col int) {
	if pivotOverride != nil {
		pivotOverride(k, row, col)
		return
	}
	ar := k.a[row][:k.nTotal]
	inv := 1 / ar[col]
	nz := k.nz[:0]
	for j := range ar {
		ar[j] *= inv
		if ar[j] != 0 {
			nz = append(nz, int32(j))
		}
	}
	for i, ai := range k.a {
		if i == row {
			continue
		}
		f := ai[col]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			ai[j] -= f * ar[j]
		}
	}
	// The carried reduced-cost row is eliminated like any other row.
	d := k.d
	if f := d[col]; f != 0 {
		for _, j := range nz {
			d[j] -= f * ar[j]
		}
	}
	d[col] = 0
}

// refactorAt Gauss-Jordans the warm basis columns to unit vectors with
// partial (largest-entry) pivoting over the not-yet-assigned rows, so that
// a = B⁻¹A and x = B⁻¹b, then subtracts the nonbasic-at-upper columns'
// contributions from x. A pivot smaller than tolerance means the basis is
// singular for the perturbed matrix. The rows of the basis come out in
// pivoting order, not in the order given.
func (k *denseKernel) refactorAt(rows []int) bool {
	assigned := make([]bool, k.m)
	for _, col := range rows {
		row, rowAbs := -1, tol
		for i, ai := range k.a {
			if assigned[i] {
				continue
			}
			if ab := math.Abs(ai[col]); ab > rowAbs {
				row, rowAbs = i, ab
			}
		}
		if row < 0 {
			return false
		}
		k.refactorPivot(row, col)
		k.basis[row] = col
		assigned[row] = true
	}
	for j, st := range k.status {
		if st != atUpper {
			continue
		}
		if u := k.upper[j]; u != 0 {
			for i, ai := range k.a {
				k.x[i] -= ai[j] * u
			}
		}
	}
	return true
}

// refactorPivot performs a Gauss-Jordan elimination step on both the matrix
// and x (which therefore tracks B⁻¹b, unlike pivot, which leaves the basic
// values to the simplex).
func (k *denseKernel) refactorPivot(row, col int) {
	ar := k.a[row][:k.nTotal]
	inv := 1 / ar[col]
	for j := range ar {
		ar[j] *= inv
	}
	x := k.x
	x[row] *= inv
	xr := x[row]
	for i, ai := range k.a {
		if i == row {
			continue
		}
		f := ai[col]
		if f == 0 {
			continue
		}
		ai = ai[:len(ar)]
		for j, v := range ar {
			ai[j] -= f * v
		}
		x[i] -= f * xr
	}
}

// dualPrices prices the phase-2 cost into the carried row.
func (k *denseKernel) dualPrices() []float64 {
	d := k.d[:k.nTotal]
	k.reducedCosts(k.cost, d)
	return d
}

// pivotRow is the tableau row itself.
func (k *denseKernel) pivotRow(r int) []float64 { return k.a[r][:k.nTotal] }

// dualUpdate pivots like update; pivot's elimination of the carried row d
// is exactly the dual step d −= (d_q/α_q)·α.
func (k *denseKernel) dualUpdate(r, enter, _ int, _, _ []float64) bool {
	k.pivot(r, enter)
	return true
}

// rowDuals reads the row duals off the carried row, which the simplex
// priced afresh for the phase-2 cost before it returned Optimal. Row i's
// start column is e_i with zero cost, so d there is −y_i.
func (k *denseKernel) rowDuals() []float64 {
	y := make([]float64, k.m)
	for i, c := range k.start {
		if v := k.d[c]; v != 0 {
			y[i] = -v
		}
	}
	return y
}

// reducedCost is the carried row's d_j.
func (k *denseKernel) reducedCost(j int) float64 { return k.d[j] }
