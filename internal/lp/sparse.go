// Sparse column storage for the revised simplex.
//
// The revised method (revised.go) never materializes the dense B⁻¹A tableau;
// it works from the original standard-form constraint matrix held here in
// compressed sparse column (CSC) form, plus a factorization of the current
// basis (lu.go). The column layout is the form both kernels share
// (simplex.go), so a Basis captured under one kernel applies directly to
// the other.
package lp

// cscMatrix is an m-row sparse matrix in compressed sparse column form.
// Row indices within each column are strictly ascending.
type cscMatrix struct {
	m      int
	colPtr []int32 // len = cols+1
	rowIdx []int32 // len = nnz
	val    []float64
}

// col returns the row indices and values of column j.
func (a *cscMatrix) col(j int) ([]int32, []float64) {
	lo, hi := a.colPtr[j], a.colPtr[j+1]
	return a.rowIdx[lo:hi], a.val[lo:hi]
}

// colNNZ reports the number of stored entries in column j.
func (a *cscMatrix) colNNZ(j int) int { return int(a.colPtr[j+1] - a.colPtr[j]) }

// standardForm is a form with its constraint matrix in sparse column
// storage.
type standardForm struct {
	form
	a *cscMatrix
}

// newStandardForm lowers p into sparse standard form: newForm's layout,
// loadMatrix's entries, duplicate coefficients summed in encounter order
// exactly as the dense kernel sums them, so both kernels price the same
// matrix.
func newStandardForm(p *Problem) *standardForm {
	s := &standardForm{form: *newForm(p)}

	// Pass 1: structural column counts (duplicate (row, var) coefficients
	// aggregate, so count distinct slots conservatively by occurrences —
	// duplicates are merged in pass 2).
	counts := make([]int32, s.n)
	for _, row := range p.rows {
		for _, co := range row.Coefs {
			counts[co.Var]++
		}
	}
	colPtr := make([]int32, s.nTotal+1)
	nnzStruct := int32(0)
	for j := 0; j < s.n; j++ {
		colPtr[j] = nnzStruct
		nnzStruct += counts[j]
	}
	units := int32(s.nTotal - s.n)
	rowIdx := make([]int32, nnzStruct, nnzStruct+units)
	val := make([]float64, nnzStruct, nnzStruct+units)

	// Pass 2: fill structural entries row-by-row; within each column,
	// entries arrive in ascending row order because rows are visited in
	// order. Duplicate (row, var) pairs within one row aggregate in place.
	// The unit columns, one entry each, are set aside until the structural
	// columns are compacted.
	fill := make([]int32, s.n)
	copy(fill, colPtr[:s.n])
	unitRow := make([]int32, 0, units)
	unitVal := make([]float64, 0, units)
	loadMatrix(p, &s.form, func(i, j int, v float64) {
		if j >= s.n {
			unitRow = append(unitRow, int32(i))
			unitVal = append(unitVal, v)
			return
		}
		if fill[j] > colPtr[j] && rowIdx[fill[j]-1] == int32(i) {
			val[fill[j]-1] += v
			return
		}
		rowIdx[fill[j]] = int32(i)
		val[fill[j]] = v
		fill[j]++
	})
	// Compact out the slots freed by duplicate aggregation.
	w := int32(0)
	for j := 0; j < s.n; j++ {
		lo := colPtr[j]
		colPtr[j] = w
		for k := lo; k < fill[j]; k++ {
			rowIdx[w] = rowIdx[k]
			val[w] = val[k]
			w++
		}
	}
	rowIdx = rowIdx[:w]
	val = val[:w]
	for k, r := range unitRow {
		colPtr[s.n+k] = int32(len(rowIdx))
		rowIdx = append(rowIdx, r)
		val = append(val, unitVal[k])
	}
	colPtr[s.nTotal] = int32(len(rowIdx))
	s.a = &cscMatrix{m: s.m, colPtr: colPtr, rowIdx: rowIdx, val: val}
	return s
}
