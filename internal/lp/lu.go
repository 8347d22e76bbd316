// Sparse LU factorization of the simplex basis, with product-form eta
// updates.
//
// The basis matrix B (column k = the constraint column basic in tableau row
// k) is factored as P·B·Q = L·U by a left-looking Gilbert–Peierls
// elimination: columns are processed in ascending-fill order (fewest
// nonzeros first — a static approximation of Markowitz ordering), each
// column is lower-solved against the L built so far with a reachability
// worklist so the work is proportional to nonzeros touched, and the pivot
// row is chosen by threshold partial pivoting — among rows within
// luPivotThreshold of the largest eligible magnitude, the row with the
// fewest nonzeros in the basis (the Markowitz-style fill-in control), ties
// to the smaller row index so factorization is deterministic.
//
// Between refactorizations, basis changes are absorbed as product-form eta
// matrices: replacing the basic variable in tableau slot r by a column
// whose FTRAN image is w appends the eta (r, w), and B_new = B_old·E. FTRAN
// (solve B·x = a) runs the LU solve then applies eta inverses in creation
// order; BTRAN (solve Bᵀ·y = c) applies eta-transpose inverses in reverse
// order then the LU transpose solve. Forrest–Tomlin would update U in place
// instead; the product form was chosen because it leaves the factors
// immutable (simpler invariants, trivially deterministic, and shareable:
// the warm solves of one Basis read one factorization, each with its own
// etas) at the cost of one extra sparse vector per pivot — which the
// refactorization cadence (luRefactorEvery) caps.
package lp

import "math"

const (
	// luRefactorEvery caps accumulated etas before the basis is refactored
	// from scratch: FTRAN/BTRAN cost grows linearly with the eta count,
	// and so does accumulated rounding.
	luRefactorEvery = 64
	// luPivotThreshold is the relative magnitude a pivot candidate must
	// reach (vs the column's largest eligible entry) to be chosen on
	// fill-in merit rather than magnitude.
	luPivotThreshold = 0.1
	// luSingularTol is the absolute magnitude below which a pivot (or an
	// eta pivot element) is treated as numerically singular.
	luSingularTol = 1e-11
)

// luFactor is one factorization P·B·Q = L·U.
//
// Index spaces: "row" means original constraint row (0..m-1); "slot" means
// tableau row / basis position (0..m-1; slot i holds basis[i]); "pos" means
// pivot order within this factorization. L entries carry original row
// indices; U entries carry pivot positions.
type luFactor struct {
	m int

	lPtr []int32
	lIdx []int32 // original row
	lVal []float64

	uPtr  []int32
	uIdx  []int32 // pivot position (< column's own position)
	uVal  []float64
	uDiag []float64

	perm    []int32 // pos → original row pivoted there
	pos     []int32 // original row → pos
	slotAt  []int32 // pos → basis slot factored at that step
	posSlot []int32 // basis slot → pos
}

// luScratch holds the dense work vectors shared across factorizations and
// solves of one revised-simplex run (never shared across goroutines).
type luScratch struct {
	x       []float64
	mark    []bool
	heap    []int32
	touched []int32
	rowCnt  []int32
}

func newLUScratch(m int) *luScratch {
	return &luScratch{
		x:       make([]float64, m),
		mark:    make([]bool, m),
		heap:    make([]int32, 0, m),
		touched: make([]int32, 0, m),
		rowCnt:  make([]int32, m),
	}
}

// factorBasis factors the basis given by slot → column assignment. Returns
// nil when the basis is numerically singular.
func factorBasis(sf *standardForm, basis []int, ws *luScratch) *luFactor {
	m := sf.m
	f := &luFactor{
		m:       m,
		lPtr:    make([]int32, 1, m+1),
		uPtr:    make([]int32, 1, m+1),
		uDiag:   make([]float64, m),
		perm:    make([]int32, m),
		pos:     make([]int32, m),
		slotAt:  make([]int32, m),
		posSlot: make([]int32, m),
	}
	for i := range f.pos {
		f.pos[i] = -1
	}

	// Static Markowitz surrogates: per-row nonzero counts over the basis
	// columns (pivot merit), and a column order of ascending nonzero count.
	rowCnt := ws.rowCnt
	for i := range rowCnt {
		rowCnt[i] = 0
	}
	for _, col := range basis {
		rows, _ := sf.a.col(col)
		for _, r := range rows {
			rowCnt[r]++
		}
	}
	order := make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	// Counting-sort slots by column nonzero count (stable, so equal-count
	// slots keep ascending slot order — deterministic).
	maxCnt := 0
	for _, col := range basis {
		if c := sf.a.colNNZ(col); c > maxCnt {
			maxCnt = c
		}
	}
	buckets := make([]int32, maxCnt+2)
	for _, col := range basis {
		buckets[sf.a.colNNZ(col)+1]++
	}
	for c := 1; c < len(buckets); c++ {
		buckets[c] += buckets[c-1]
	}
	for slot := 0; slot < m; slot++ {
		c := sf.a.colNNZ(basis[slot])
		order[buckets[c]] = int32(slot)
		buckets[c]++
	}

	x := ws.x
	for k := 0; k < m; k++ {
		slot := order[k]
		f.slotAt[k] = slot
		rows, vals := sf.a.col(basis[slot])

		// Scatter the column and seed the elimination worklist with the
		// already-pivotal positions it touches.
		touched := ws.touched[:0]
		heap := ws.heap[:0]
		for t, r := range rows {
			x[r] = vals[t]
			ws.mark[r] = true
			touched = append(touched, r)
			if p := f.pos[r]; p >= 0 {
				heap = pushPos(heap, p)
			}
		}

		// Left-looking elimination in ascending pivot-position order.
		// Applying L column t only creates fill at rows below position t,
		// so a min-heap pops positions in a valid topological order.
		for len(heap) > 0 {
			var t int32
			t, heap = popPos(heap)
			pr := f.perm[t]
			y := x[pr]
			if y != 0 {
				f.uIdx = append(f.uIdx, t)
				f.uVal = append(f.uVal, y)
				for e := f.lPtr[t]; e < f.lPtr[t+1]; e++ {
					r := f.lIdx[e]
					if !ws.mark[r] {
						ws.mark[r] = true
						touched = append(touched, r)
						if p := f.pos[r]; p >= 0 {
							heap = pushPos(heap, p)
						}
					}
					x[r] -= f.lVal[e] * y
				}
			}
		}

		// Pivot choice among non-pivotal touched rows: threshold partial
		// pivoting with static-Markowitz row merit.
		var pivRow int32 = -1
		maxAbs := 0.0
		for _, r := range touched {
			if f.pos[r] >= 0 {
				continue
			}
			if a := math.Abs(x[r]); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs < luSingularTol {
			clearTouched(x, ws.mark, touched)
			return nil
		}
		bestCnt := int32(math.MaxInt32)
		for _, r := range touched {
			if f.pos[r] >= 0 {
				continue
			}
			if math.Abs(x[r]) < luPivotThreshold*maxAbs {
				continue
			}
			if rowCnt[r] < bestCnt || (rowCnt[r] == bestCnt && (pivRow < 0 || r < pivRow)) {
				bestCnt = rowCnt[r]
				pivRow = r
			}
		}
		piv := x[pivRow]
		f.perm[k] = pivRow
		f.pos[pivRow] = int32(k)
		f.posSlot[slot] = int32(k)
		f.uDiag[k] = piv

		// L column k: remaining sub-diagonal entries, ascending row order
		// for a deterministic layout (touched order is scatter order, so
		// sort the small slice of survivors).
		lRows := touched[:0:0]
		for _, r := range touched {
			if f.pos[r] >= 0 || r == pivRow || x[r] == 0 {
				continue
			}
			lRows = append(lRows, r)
		}
		insertionSortInt32(lRows)
		inv := 1 / piv
		for _, r := range lRows {
			f.lIdx = append(f.lIdx, r)
			f.lVal = append(f.lVal, x[r]*inv)
		}
		f.lPtr = append(f.lPtr, int32(len(f.lIdx)))
		f.uPtr = append(f.uPtr, int32(len(f.uIdx)))

		clearTouched(x, ws.mark, touched)
	}
	return f
}

func clearTouched(x []float64, mark []bool, touched []int32) {
	for _, r := range touched {
		x[r] = 0
		mark[r] = false
	}
}

// pushPos / popPos maintain a binary min-heap of pivot positions.
func pushPos(h []int32, v int32) []int32 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popPos(h []int32) (int32, []int32) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(h) && h[l] < h[s] {
			s = l
		}
		if r < len(h) && h[r] < h[s] {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	// Skip duplicates pushed by multiple fill events.
	for len(h) > 0 && h[0] == top {
		_, h = popPos(h)
	}
	return top, h
}

func insertionSortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// eta is one product-form basis update: the column whose FTRAN image was w
// became basic in tableau slot `slot`. Entries exclude the pivot slot.
type eta struct {
	slot   int32
	pivVal float64
	idx    []int32 // tableau slots, ascending
	val    []float64
}

// luState is the factorization plus accumulated etas — the invertible
// representation of the current basis.
type luState struct {
	f    *luFactor
	etas []eta
	ws   *luScratch
	// work vectors for solves (slot space / pos space).
	w1 []float64
	w2 []float64
}

func newLUState(m int) *luState {
	return &luState{ws: newLUScratch(m), w1: make([]float64, m), w2: make([]float64, m)}
}

// install makes f the factorization, dropping all etas. f is only read,
// so one factorization may back several states at once.
func (s *luState) install(f *luFactor) {
	s.f = f
	s.etas = s.etas[:0]
}

// ftranInto solves B·x = v. v is in original-row space; out (len m) receives
// the solution in tableau-slot space. v is left unmodified; v and out must
// not alias.
func (s *luState) ftranInto(out, v []float64) {
	f := s.f
	m := f.m
	w := s.w1
	copy(w, v)
	// L solve in pivot order (w stays row-indexed; w[perm[t]] is y_t).
	for t := 0; t < m; t++ {
		y := w[f.perm[t]]
		if y != 0 {
			for e := f.lPtr[t]; e < f.lPtr[t+1]; e++ {
				w[f.lIdx[e]] -= f.lVal[e] * y
			}
		}
	}
	// U back-substitution, column-oriented.
	for k := m - 1; k >= 0; k-- {
		pr := f.perm[k]
		t := w[pr] / f.uDiag[k]
		w[pr] = t
		if t != 0 {
			for e := f.uPtr[k]; e < f.uPtr[k+1]; e++ {
				w[f.perm[f.uIdx[e]]] -= f.uVal[e] * t
			}
		}
	}
	// Permute pos space → slot space.
	for k := 0; k < m; k++ {
		out[f.slotAt[k]] = w[f.perm[k]]
	}
	// Eta inverses in creation order.
	for i := range s.etas {
		e := &s.etas[i]
		t := out[e.slot] / e.pivVal
		if t != 0 {
			for j, sl := range e.idx {
				out[sl] -= e.val[j] * t
			}
		}
		out[e.slot] = t
	}
}

// btranInto solves Bᵀ·y = c. c is in tableau-slot space (cost of the basic
// variable in each slot); out (len m) receives y in original-row space.
// c is left unmodified; c and out must not alias.
func (s *luState) btranInto(out, c []float64) {
	f := s.f
	m := f.m
	w := s.w1
	copy(w, c)
	// Eta-transpose inverses in reverse creation order.
	for i := len(s.etas) - 1; i >= 0; i-- {
		e := &s.etas[i]
		dot := 0.0
		for j, sl := range e.idx {
			dot += e.val[j] * w[sl]
		}
		w[e.slot] = (w[e.slot] - dot) / e.pivVal
	}
	// Uᵀ forward solve in pos space: v_k = (ĉ_k − Σ U[t,k]·v_t)/u_kk.
	v := s.w2
	for k := 0; k < m; k++ {
		acc := w[f.slotAt[k]]
		for e := f.uPtr[k]; e < f.uPtr[k+1]; e++ {
			acc -= f.uVal[e] * v[f.uIdx[e]]
		}
		v[k] = acc / f.uDiag[k]
	}
	// Lᵀ backward solve: ŷ_t = v_t − Σ L[p,t]·ŷ_p, then y[perm[t]] = ŷ_t.
	for t := m - 1; t >= 0; t-- {
		acc := v[t]
		for e := f.lPtr[t]; e < f.lPtr[t+1]; e++ {
			acc -= f.lVal[e] * v[f.pos[f.lIdx[e]]]
		}
		v[t] = acc
	}
	for t := 0; t < m; t++ {
		out[f.perm[t]] = v[t]
	}
}

// update absorbs a basis change: the column whose FTRAN image is w (slot
// space) becomes basic in slot r. Reports false when the pivot element is
// too small to absorb stably — the caller must refactor instead.
func (s *luState) update(r int, w []float64) bool {
	if math.Abs(w[r]) < luSingularTol {
		return false
	}
	e := eta{slot: int32(r), pivVal: w[r]}
	for i, v := range w {
		if v != 0 && i != r {
			e.idx = append(e.idx, int32(i))
			e.val = append(e.val, v)
		}
	}
	s.etas = append(s.etas, e)
	return true
}

// needsRefactor reports whether the accumulated eta count has reached the
// refactorization trigger.
func (s *luState) needsRefactor() bool { return len(s.etas) >= luRefactorEvery }
