// Bounded-variable primal simplex, the dense solver behind MethodAuto and
// MethodBounded.
//
// Energy dispatch LPs are bound-dominated — every flow, generation and load
// variable is boxed — so this is the classic bounded-variable simplex: upper
// bounds stay implicit, nonbasic variables may sit at either bound, and
// bound-to-bound "flips" avoid pivots entirely. The basis holds one row per
// constraint, never one per bound (~50 rows instead of ~150 on the six-state
// model), and each pivot is priced from a carried reduced-cost row instead
// of recomputing it. Each pivot eliminates only the columns where the
// normalized pivot row is nonzero (~45 of 186 on the stressed westgrid
// dispatch), which leaves the tableau bit-identical to a full-row sweep.
//
// Results (objective, primal values, row duals, bound duals) agree with an
// independent bounds-as-rows reference tableau to solver tolerance; that
// reference lives in rows_reference_test.go, and TestMethodsAgree in
// bounded_test.go is the cross-check.
package lp

import (
	"fmt"
	"math"
	"sync"
)

// Method selects the simplex implementation.
type Method int8

const (
	// MethodAuto (the zero value) is MethodBounded.
	MethodAuto Method = iota
	// Value 1 was the retired bounds-as-rows method. It stays unused
	// because impact salts solve-cache keys with the numeric method.
	_
	// MethodBounded keeps upper bounds implicit in the pivot rules
	// (smaller basis, carried pricing).
	MethodBounded
	// MethodRevised is the sparse revised simplex (revised.go): CSC column
	// storage, LU-factorized basis with product-form eta updates, sparse
	// FTRAN/BTRAN and partial pricing. Same standard form and pivot rules
	// as MethodBounded, O(nnz) per pivot instead of O(m·nTotal) — the only
	// method that scales to the national gridgen tier.
	MethodRevised
)

// MethodDense is an alias for MethodAuto: the dense bounded tableau. It
// names the differential oracle the revised method is tested against.
const MethodDense = MethodAuto

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodBounded:
		return "bounded"
	case MethodRevised:
		return "revised"
	default:
		return "Method(?)"
	}
}

// ParseMethod maps a CLI flag value to a Method. The empty string, "auto"
// and "dense" all select the dense bounded tableau.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "", "auto", "dense":
		return MethodAuto, nil
	case "bounded":
		return MethodBounded, nil
	case "revised":
		return MethodRevised, nil
	}
	return MethodAuto, fmt.Errorf("lp: unknown method %q (want auto|dense|bounded|revised)", s)
}

// nonbasic status markers.
const (
	atLower int8 = iota
	atUpper
	inBasis
)

// boundedTableau is the working state of the bounded-variable simplex in
// dense tableau form: a holds B⁻¹A for all columns, rhs holds the basic
// variable *values* (already adjusted for nonbasic-at-upper offsets).
type boundedTableau struct {
	tol        float64
	skipDuals  bool
	forceBland bool
	g          *guard
	p          *Problem

	n      int // structural variables
	m      int // rows (user constraints only)
	nTotal int // structural + slack/artificial columns

	a     [][]float64
	d     []float64 // carried reduced-cost row c − c_Bᵀ(B⁻¹A) for the current simplex call
	rhs   []float64
	upper []float64 // per column (slacks: +Inf, artificials: 0 after phase 1)
	cost  []float64 // phase-2 cost per column

	backing []float64 // storage of a and d, returned to backingPool by release
	nz      []int32   // pivot's nonzero-column buffer, returned to nzPool by release

	basis  []int  // column basic in each row
	status []int8 // per column
	art    []bool // per column: is artificial

	iters int
	max   int
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

// release hands the tableau's storage back to backingPool and nzPool. The
// tableau must not be used afterwards; nothing a solve returns refers to it
// (extract allocates the Solution's slices and captureBasis copies).
func (t *boundedTableau) release() {
	b, nz := t.backing, t.nz
	t.backing, t.a, t.d, t.nz = nil, nil, nil, nil
	backingPool.Put(&b)
	nzPool.Put(&nz)
}

// solveBounded is the entry point used by Problem.SolveOpts for
// MethodBounded.
func solveBounded(p *Problem, opts Options, g *guard) (*Solution, error) {
	if opts.WarmStart != nil {
		if sol, err, ok := solveBoundedWarm(p, opts, g); ok {
			return sol, err
		}
		mWarmFallbacks.Inc()
	}
	t := newBoundedTableau(p, opts)
	defer t.release()
	t.g = g
	st := t.run()
	switch st {
	case statusAborted:
		return nil, p.solveErr("lp.pivot", Optimal, t.iters, g.err)
	case Infeasible, Unbounded, IterationLimit, Canceled, DeadlineExceeded:
		return &Solution{Status: st, Iterations: t.iters}, nil
	}
	return t.extract(p)
}

func newBoundedTableau(p *Problem, opts Options) *boundedTableau {
	t := &boundedTableau{tol: opts.tol(), skipDuals: opts.SkipDuals, forceBland: opts.ForceBland, p: p}
	t.n = len(p.obj)
	t.m = len(p.rows)

	// One zeroed slice, reused across solves through backingPool, holds
	// the m tableau rows plus the carried reduced-cost row.
	maxCols := t.n + 2*t.m
	t.a = make([][]float64, t.m)
	backing := getBacking((t.m + 1) * maxCols)
	t.backing = backing
	for i := range t.a {
		t.a[i] = backing[i*maxCols : (i+1)*maxCols]
	}
	t.d = backing[t.m*maxCols:]
	t.nz = getNZ(maxCols)
	t.rhs = make([]float64, t.m)
	t.upper = make([]float64, 0, maxCols)
	t.cost = make([]float64, 0, maxCols)
	t.basis = make([]int, t.m)
	t.status = make([]int8, 0, maxCols)
	t.art = make([]bool, 0, maxCols)

	for j := 0; j < t.n; j++ {
		t.upper = append(t.upper, p.upper[j])
		t.cost = append(t.cost, p.obj[j])
		t.status = append(t.status, atLower)
		t.art = append(t.art, false)
	}

	// Normalize rows to b ≥ 0 and add slack/artificial columns.
	type rowInfo struct {
		sense Sense
		rhs   float64
	}
	infos := make([]rowInfo, t.m)
	for i, row := range p.rows {
		s, rhs := row.Sense, row.RHS
		flip := rhs < 0
		if flip {
			rhs = -rhs
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		for _, co := range row.Coefs {
			v := co.Value
			if flip {
				v = -v
			}
			t.a[i][co.Var] += v
		}
		infos[i] = rowInfo{s, rhs}
		t.rhs[i] = rhs
	}
	col := t.n
	addCol := func(rowIdx int, coef float64, upper float64, isArt bool) int {
		t.a[rowIdx][col] = coef
		t.upper = append(t.upper, upper)
		t.cost = append(t.cost, 0)
		t.status = append(t.status, atLower)
		t.art = append(t.art, isArt)
		col++
		return col - 1
	}
	for i, info := range infos {
		switch info.sense {
		case LE:
			c := addCol(i, 1, math.Inf(1), false)
			t.basis[i] = c
			t.status[c] = inBasis
		case GE:
			addCol(i, -1, math.Inf(1), false) // surplus
			c := addCol(i, 1, math.Inf(1), true)
			t.basis[i] = c
			t.status[c] = inBasis
		case EQ:
			c := addCol(i, 1, math.Inf(1), true)
			t.basis[i] = c
			t.status[c] = inBasis
		}
	}
	t.nTotal = col
	t.max = opts.maxIter(t.m, t.nTotal)
	return t
}

// run executes both phases. Returns Optimal on success.
func (t *boundedTableau) run() Status {
	hasArt := false
	for _, isArt := range t.art {
		if isArt {
			hasArt = true
			break
		}
	}
	if hasArt {
		mPhase1.Inc()
		c1 := make([]float64, t.nTotal)
		for j, isArt := range t.art {
			if isArt {
				c1[j] = 1
			}
		}
		if st := t.simplex(c1); st != Optimal {
			return st
		}
		// Infeasible if any artificial remains positive.
		artSum := 0.0
		for i, bc := range t.basis {
			if t.art[bc] {
				artSum += t.rhs[i]
			}
		}
		scale := 1.0
		for _, v := range t.rhs {
			if v > scale {
				scale = v
			}
		}
		if artSum > t.tol*scale*float64(t.m+1)*100 {
			return Infeasible
		}
		// Clamp artificials to zero: cap their bounds so they cannot
		// re-enter at positive value in phase 2.
		for j, isArt := range t.art {
			if isArt {
				t.upper[j] = 0
			}
		}
	}
	return t.simplex(t.cost)
}

// value returns the current value of column j.
func (t *boundedTableau) value(j int) float64 {
	switch t.status[j] {
	case atUpper:
		return t.upper[j]
	case inBasis:
		for i, bc := range t.basis {
			if bc == j {
				return t.rhs[i]
			}
		}
	}
	return 0
}

// pivotOverride and enteringOverride, when non-nil, replace the pivot and
// pricing kernels. Only tests set them (export_test.go keeps the full-row
// reference kernel the nonzero-only one is checked against); they are nil
// in every other solve.
var (
	pivotOverride    func(t *boundedTableau, row, col int, enterValue float64)
	enteringOverride func(t *boundedTableau, bland bool) (enter int, enterDir float64)
)

// pricingHook, when non-nil, observes the tableau after every pivot and
// bound flip of simplex, with the cost row c being minimized. Only tests set
// it (export_test.go); it is nil in every other solve.
var pricingHook func(t *boundedTableau, c []float64)

// simplex runs bounded-variable pivots minimizing c over the current state.
//
// Pricing reads the carried reduced-cost row t.d: it is computed from
// scratch on entry, updated by every pivot with the normalized pivot row,
// and left alone by bound flips (which do not change the basis). Choosing
// the entering column therefore costs O(nTotal) rather than O(m·nTotal).
// Both verdicts are confirmed by a fresh pricing pass: when the carried row
// finds no improving column, before Optimal is returned, and when its
// entering column has an unbounded ray, before Unbounded is returned. So
// rounding drift in the carried row can cost a pivot but never a wrong
// Optimal or Unbounded.
func (t *boundedTableau) simplex(c []float64) Status {
	bland := t.forceBland
	noProgress := 0
	lastObj := math.Inf(1)
	t.reducedCosts(c, t.d)
	for t.iters < t.max {
		if t.g.due(t.iters) {
			if st, stop := t.g.at("lp.pivot"); stop {
				return st
			}
		}
		// Objective for progress tracking.
		obj := 0.0
		for j := 0; j < t.nTotal; j++ {
			if t.status[j] == atUpper {
				obj += c[j] * t.upper[j]
			}
		}
		for i, bc := range t.basis {
			obj += c[bc] * t.rhs[i]
		}
		if obj < lastObj-t.tol {
			lastObj = obj
			noProgress = 0
		} else if noProgress++; noProgress > 2*(t.m+10) {
			if !bland {
				mBlandSwitch.Inc()
			}
			bland = true
		}

		enter, enterDir := t.entering(bland)
		fresh := false // t.d was just priced from scratch
		if enter < 0 {
			t.reducedCosts(c, t.d)
			fresh = true
			if enter, enterDir = t.entering(bland); enter < 0 {
				return Optimal
			}
		}
		limit, leave, leaveToUpper := t.ratioTest(enter, enterDir)
		if math.IsInf(limit, 1) && !fresh {
			// An unbounded ray is a verdict too: confirm the entering
			// choice against a fresh pricing pass before reporting it.
			t.reducedCosts(c, t.d)
			if enter, enterDir = t.entering(bland); enter < 0 {
				return Optimal
			}
			limit, leave, leaveToUpper = t.ratioTest(enter, enterDir)
		}
		if math.IsInf(limit, 1) {
			return Unbounded
		}
		t.iters++
		if leave < 0 {
			// Bound flip: x_enter runs to its opposite bound.
			t.flip(enter, enterDir, limit)
		} else {
			// Pivot: shift basic values for the move, then swap basis.
			t.move(enter, enterDir, limit)
			var enterValue float64
			if enterDir > 0 {
				enterValue = limit // rose from its lower bound (0)
			} else {
				enterValue = t.upper[enter] - limit // fell from its upper bound
			}
			outCol := t.basis[leave]
			if leaveToUpper {
				t.status[outCol] = atUpper
			} else {
				t.status[outCol] = atLower
			}
			t.pivot(leave, enter, enterValue)
			t.status[enter] = inBasis
		}
		if pricingHook != nil {
			pricingHook(t, c)
		}
	}
	return IterationLimit
}

// ratioTest finds how far x_enter can move in direction enterDir: moving it
// by Δ·enterDir changes basic values by −Δ·enterDir·column. The limit is the
// first of (a) a basic variable reaching 0, (b) a basic variable reaching its
// upper bound, and (c) x_enter reaching its own opposite bound; leave < 0
// for (c), and limit = +Inf when nothing blocks.
func (t *boundedTableau) ratioTest(enter int, enterDir float64) (limit float64, leave int, leaveToUpper bool) {
	limit = math.Inf(1)
	if u := t.upper[enter]; !math.IsInf(u, 1) {
		limit = u // case (c): full flip distance
	}
	leave = -1
	for i := 0; i < t.m; i++ {
		coef := enterDir * t.a[i][enter]
		bc := t.basis[i]
		if coef > t.tol {
			// Basic value decreases toward 0.
			ratio := t.rhs[i] / coef
			if ratio < limit-t.tol ||
				(ratio < limit+t.tol && leave >= 0 && bc < t.basis[leave]) {
				limit = ratio
				leave = i
				leaveToUpper = false
			}
		} else if coef < -t.tol {
			// Basic value increases toward its upper bound.
			if ub := t.upper[bc]; !math.IsInf(ub, 1) {
				ratio := (ub - t.rhs[i]) / -coef
				if ratio < limit-t.tol ||
					(ratio < limit+t.tol && leave >= 0 && bc < t.basis[leave]) {
					limit = ratio
					leave = i
					leaveToUpper = true
				}
			}
		}
	}
	return limit, leave, leaveToUpper
}

// reducedCosts prices every column from scratch into d:
// d_j = c_j − c_Bᵀ (B⁻¹A)_j. Rows are accumulated in basis order, so each
// d_j sums its terms in the same order a per-column loop would.
func (t *boundedTableau) reducedCosts(c, d []float64) {
	copy(d[:t.nTotal], c[:t.nTotal])
	for i, bc := range t.basis {
		cb := c[bc]
		if cb == 0 {
			continue
		}
		ai := t.a[i]
		for j := 0; j < t.nTotal; j++ {
			d[j] -= cb * ai[j]
		}
	}
}

// entering picks the entering column from the carried reduced costs:
// Dantzig's largest improvement with first-lowest-index ties, or under
// Bland's rule the first improving column. Candidates are columns at lower
// with d < −tol (increase) and at upper with d > tol (decrease). Returns
// enter < 0 when no column improves.
func (t *boundedTableau) entering(bland bool) (enter int, enterDir float64) {
	if enteringOverride != nil {
		return enteringOverride(t, bland)
	}
	enter = -1
	enterDir = 1 // +1 increasing from lower, −1 decreasing from upper
	best := t.tol
	for j := 0; j < t.nTotal; j++ {
		// A candidate improves by |d_j|, so anything not above the best
		// so far is skipped before its status and bound are read.
		r := t.d[j]
		if math.Abs(r) <= best {
			continue
		}
		if t.status[j] == inBasis {
			continue
		}
		if t.upper[j] == 0 && t.status[j] == atLower {
			continue // fixed at zero (clamped artificials)
		}
		var imp float64
		var dir float64
		if t.status[j] == atLower && r < 0 {
			imp, dir = -r, 1
		} else if t.status[j] == atUpper && r > 0 {
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

// flip moves a nonbasic column across to its other bound, adjusting basic
// values.
func (t *boundedTableau) flip(j int, dir, delta float64) {
	t.move(j, dir, delta)
	if dir > 0 {
		t.status[j] = atUpper
	} else {
		t.status[j] = atLower
	}
}

// move shifts nonbasic column j by delta in direction dir and updates the
// basic variable values accordingly.
func (t *boundedTableau) move(j int, dir, delta float64) {
	if delta == 0 {
		return
	}
	for i := 0; i < t.m; i++ {
		t.rhs[i] -= dir * delta * t.a[i][j]
		if t.rhs[i] < 0 && t.rhs[i] > -1e-11 {
			t.rhs[i] = 0
		}
	}
}

// pivot performs the Gauss-Jordan elimination making column col basic in
// row `row`. Unlike a textbook tableau, rhs stores basic-variable
// *values*, which are unchanged for rows other than `row` by a basis swap;
// only row `row` is rewritten to the entering variable's value (enterValue,
// computed by the caller from the ratio-test limit).
//
// Only the columns where the normalized pivot row is nonzero are
// eliminated: elsewhere the update would subtract f·0, which leaves every
// nonzero entry as it is, so the result is bit-identical to a full-row sweep
// (a zero entry may differ in sign only) at a fraction of the work.
func (t *boundedTableau) pivot(row, col int, enterValue float64) {
	if pivotOverride != nil {
		pivotOverride(t, row, col, enterValue)
		return
	}
	inv := 1 / t.a[row][col]
	ar := t.a[row][:t.nTotal]
	nz := t.nz[:0]
	for j := range ar {
		ar[j] *= inv
		if ar[j] != 0 {
			nz = append(nz, int32(j))
		}
	}
	t.rhs[row] = enterValue
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		ai := t.a[i]
		f := ai[col]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			ai[j] -= f * ar[j]
		}
	}
	// The carried reduced-cost row is eliminated like any other row.
	if f := t.d[col]; f != 0 {
		for _, j := range nz {
			t.d[j] -= f * ar[j]
		}
	}
	t.d[col] = 0
	t.basis[row] = col
}

// extract reads out the solution and recovers duals by solving Bᵀy = c_B
// against the original (pre-pivot) standard-form matrix.
func (t *boundedTableau) extract(p *Problem) (*Solution, error) {
	sol := &Solution{
		Status:     Optimal,
		X:          make([]float64, t.n),
		Duals:      make([]float64, t.m),
		BoundDuals: make([]float64, t.n),
		Iterations: t.iters,
	}
	for j := 0; j < t.n; j++ {
		v := t.value(j)
		if math.Abs(v) < 1e-12 {
			v = 0
		}
		sol.X[j] = v
	}
	obj := 0.0
	for j, x := range sol.X {
		obj += p.obj[j] * x
	}
	sol.Objective = obj
	sol.basis = t.captureBasis()

	if t.skipDuals {
		return sol, nil
	}
	// Rebuild original standard-form columns (this overwrites t.a).
	orig := t.originalMatrix(p)
	bt := make([][]float64, t.m)
	for i := range bt {
		bt[i] = make([]float64, t.m+1)
	}
	for k, bc := range t.basis {
		for i := 0; i < t.m; i++ {
			bt[k][i] = orig[i][bc]
		}
		bt[k][t.m] = t.cost[bc]
	}
	y, ok := solveDense(bt)
	if !ok {
		return nil, p.solveErr("dual-extraction", Optimal, t.iters, ErrSingularBasis)
	}
	for i, row := range p.rows {
		d := y[i]
		if row.RHS < 0 {
			d = -d
		}
		sol.Duals[i] = d
	}
	// Bound duals: reduced cost of structural variables nonbasic at their
	// upper bound (relaxing u_j by δ changes the optimum by r_j·δ ≤ 0). A
	// nonbasic variable fixed at u_j = 0 rests at both bounds; the negative
	// part of its reduced cost belongs to the upper one.
	for j := 0; j < t.n; j++ {
		fixed := t.upper[j] == 0
		if t.status[j] == inBasis || (t.status[j] == atLower && !fixed) {
			continue
		}
		r := t.cost[j]
		for i := 0; i < t.m; i++ {
			r -= y[i] * orig[i][j]
		}
		if fixed {
			r = math.Min(r, 0)
		}
		sol.BoundDuals[j] = r
	}
	return sol, nil
}

// originalMatrix reconstructs the pre-pivot standard-form matrix (structural
// + slack/surplus/artificial columns) for dual extraction. It is rebuilt in
// place of the tableau rows, which are spent once the primal values and the
// basis have been read out.
func (t *boundedTableau) originalMatrix(p *Problem) [][]float64 {
	orig := t.a
	for _, row := range orig {
		clear(row[:t.nTotal])
	}
	for i, row := range p.rows {
		flip := row.RHS < 0
		for _, co := range row.Coefs {
			v := co.Value
			if flip {
				v = -v
			}
			orig[i][co.Var] += v
		}
	}
	// Replay the slack/artificial column layout of newBoundedTableau.
	col := t.n
	for i, row := range p.rows {
		s := row.Sense
		if row.RHS < 0 {
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		switch s {
		case LE:
			orig[i][col] = 1
			col++
		case GE:
			orig[i][col] = -1
			col++
			orig[i][col] = 1
			col++
		case EQ:
			orig[i][col] = 1
			col++
		}
	}
	return orig
}
