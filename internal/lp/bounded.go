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
// A warm basis is factored by Gauss-Jordan once per basis and matrix
// (denseFactor); later warm solves on the same matrix scatter the stored
// nonzeros of B⁻¹A into a zeroed tableau instead, and copy the stored
// reduced-cost row when their cost vector is bit-equal to the one it was
// priced for.
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
	*denseStore
	a [][]float64
	d []float64

	// d is a from-scratch pricing of pricedFor while the simplex's
	// pivot-and-flip count is still pricedAt.
	pricedFor []float64
	pricedAt  int
}

// denseStore is a dense kernel's storage, recycled between solves through
// storePool. A figure sweep solves thousands of same-sized dispatch LPs
// back to back; without reuse each one allocates a fresh tableau, and the
// faster the pivots run, the faster that garbage arrives and the higher
// the process's peak RSS climbs.
type denseStore struct {
	backing []float64   // the m tableau rows, the carried row d and the simplex's w
	rows    [][]float64 // the row headers into backing
	nz      []int32     // pivot's nonzero-column buffer
}

var storePool sync.Pool

// getStore returns storage for m rows of width cols, with backing zeroed,
// reusing a pooled store when one is left.
func getStore(m, cols int) *denseStore {
	t, _ := storePool.Get().(*denseStore)
	if t == nil {
		t = new(denseStore)
	}
	if n := (m+1)*cols + m; cap(t.backing) >= n {
		t.backing = t.backing[:n]
		clear(t.backing)
	} else {
		t.backing = make([]float64, n)
	}
	if cap(t.rows) < m {
		t.rows = make([][]float64, m)
	}
	t.rows = t.rows[:m]
	for i := range t.rows {
		t.rows[i] = t.backing[i*cols : (i+1)*cols]
	}
	if cap(t.nz) < cols {
		t.nz = make([]int32, 0, cols)
	}
	return t
}

// newDense lays out the tableau of s's form on pooled storage and, unless
// warm (refactorAt fills it then), loads the constraint matrix.
func newDense(s *simplex, warm bool) *denseKernel {
	cols := s.nTotal
	t := getStore(s.m, cols)
	k := &denseKernel{simplex: s, denseStore: t, a: t.rows}
	k.d = t.backing[s.m*cols : (s.m+1)*cols]
	s.w = t.backing[(s.m+1)*cols:]
	if !warm {
		k.load()
	}
	return k
}

// load adds the constraint matrix into the zeroed tableau.
func (k *denseKernel) load() {
	loadMatrix(k.p, k.form, func(i, j int, v float64) { k.a[i][j] += v })
}

// release hands the tableau's storage back to storePool. The kernel must
// not be used afterwards; nothing a solve returns refers to it (extract
// allocates the Solution's slices and captureBasis copies).
func (k *denseKernel) release() {
	t := k.denseStore
	k.denseStore, k.a, k.d, k.w = nil, nil, nil, nil
	storePool.Put(t)
}

// reprice prices every column from scratch into the carried row, unless it
// is already fresh for c.
func (k *denseKernel) reprice(c []float64) {
	if !k.fresh(c) {
		k.reducedCosts(c, k.d)
		k.pricedFor, k.pricedAt = c, k.iters
	}
}

// fresh reports whether the carried row is a pricing pass for c with no
// pivot or bound flip since: each of those counts one iteration.
func (k *denseKernel) fresh(c []float64) bool {
	return len(c) > 0 && len(k.pricedFor) > 0 && &k.pricedFor[0] == &c[0] && k.pricedAt == k.iters
}

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

// denseFactor is a warm basis factored on the dense kernel: the tableau
// B⁻¹A as the nonzeros of each row, B⁻¹b, the basis in pivot order, and
// the reduced-cost row of cost. Every slice is sized exactly.
type denseFactor struct {
	ptr  []int32 // row i's nonzeros are col/val[ptr[i]:ptr[i+1]]
	col  []int32
	val  []float64
	x    []float64 // B⁻¹b, before the at-upper offsets
	rows []int     // basic column of each tableau row
	cost []float64 // the cost vector d was priced for
	d    []float64
}

// refactorAt sets the tableau to B⁻¹A and x to B⁻¹b at the warm basis b,
// then subtracts the nonbasic-at-upper columns' contributions from x. On
// b's own matrix it reads b's cached factorization, which the first such
// solve builds by Gauss-Jordan (and stores with every -0 entry written as
// 0, so the builder's tableau is the one every later solve scatters); the
// stored reduced-cost row is copied when the phase-2 costs are bit-equal
// to the ones it was priced for. On any other matrix it Gauss-Jordans
// afresh.
func (k *denseKernel) refactorAt(b *Basis) bool {
	if !k.ownMatrix(b) {
		if !k.eliminate(b.rows) {
			return false
		}
	} else {
		built := false
		f := b.dense.get(func() *denseFactor {
			built = true
			if !k.eliminate(b.rows) {
				return nil
			}
			return k.factor()
		})
		if f == nil {
			return false
		}
		if !built {
			k.scatter(f)
		}
		if sameBits(f.cost, k.cost) {
			copy(k.d, f.d)
			k.pricedFor, k.pricedAt = k.cost, k.iters
		}
	}
	// Row by row, each x_i subtracts its at-upper terms in column order,
	// as a column-by-column sweep would, but reads the tableau in storage
	// order. The pivot scratch lists those columns.
	up := k.nz[:0]
	for j, st := range k.status {
		if st == atUpper && k.upper[j] != 0 {
			up = append(up, int32(j))
		}
	}
	for i, ai := range k.a {
		xi := k.x[i]
		for _, j := range up {
			xi -= ai[j] * k.upper[j]
		}
		k.x[i] = xi
	}
	return true
}

// factor stores the tableau, x and basis that eliminate just left, and
// prices the phase-2 cost against them. It writes each -0 tableau entry as
// 0, which moves no value any solve computes from it.
func (k *denseKernel) factor() *denseFactor {
	nnz := 0
	for _, ai := range k.a {
		for j, v := range ai {
			if v != 0 {
				nnz++
			} else {
				ai[j] = 0
			}
		}
	}
	f := &denseFactor{
		ptr:  make([]int32, 1, k.m+1),
		col:  make([]int32, 0, nnz),
		val:  make([]float64, 0, nnz),
		x:    append([]float64(nil), k.x...),
		rows: append([]int(nil), k.basis...),
		cost: append([]float64(nil), k.cost...),
		d:    make([]float64, k.nTotal),
	}
	for _, ai := range k.a {
		for j, v := range ai {
			if v != 0 {
				f.col = append(f.col, int32(j))
				f.val = append(f.val, v)
			}
		}
		f.ptr = append(f.ptr, int32(len(f.col)))
	}
	k.reducedCosts(f.cost, f.d)
	return f
}

// scatter loads f into the zeroed tableau, x and basis.
func (k *denseKernel) scatter(f *denseFactor) {
	for i, ai := range k.a {
		for t := f.ptr[i]; t < f.ptr[i+1]; t++ {
			ai[f.col[t]] = f.val[t]
		}
	}
	copy(k.x, f.x)
	copy(k.basis, f.rows)
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// eliminate loads the constraint matrix and Gauss-Jordans the basis
// columns rows to unit vectors with partial (largest-entry) pivoting over
// the not-yet-assigned rows, so that a = B⁻¹A and x = B⁻¹b. A pivot
// smaller than tolerance means the basis is singular for this matrix. The
// rows of the basis come out in pivoting order, not in the order given.
func (k *denseKernel) eliminate(rows []int) bool {
	k.load()
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

// dualPrices prices the phase-2 cost into the carried row, unless it is
// already fresh for it.
func (k *denseKernel) dualPrices() []float64 {
	k.reprice(k.cost)
	return k.d[:k.nTotal]
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
