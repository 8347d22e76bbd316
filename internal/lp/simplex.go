// The bounded-variable simplex, shared by both kernels.
//
// Energy dispatch LPs are bound-dominated — every flow, generation and load
// variable is boxed — so this is the classic bounded-variable simplex: upper
// bounds stay implicit, nonbasic variables may sit at either bound, and
// bound-to-bound "flips" avoid pivots entirely. The basis holds one row per
// constraint, never one per bound.
//
// It owns every pivot rule, once: the two phases, progress tracking
// and the Bland switch, the entering rule, the ratio test, flips and basic
// value updates, status and basis bookkeeping, the warm re-entry's dual
// phase (warmstart.go) and the readout of the solution. What differs
// between the two methods is only linear algebra, behind the kernel
// interface: the dense tableau (bounded.go) at or below the dense crossover
// or under MethodDense, and the sparse LU/eta core (revised.go) above it.
package lp

import "math"

// Method selects the simplex kernel.
type Method int8

const (
	// MethodAuto (the zero value) lets the problem's size pick the kernel:
	// the dense tableau at or below revisedFinishMaxRows constraint rows,
	// the sparse revised simplex (revised.go) above. The sparse kernel
	// keeps CSC column storage, an LU-factorized basis with product-form
	// eta updates, sparse FTRAN/BTRAN and partial pricing: O(nnz) per
	// pivot instead of O(m·nTotal), which is what scales to the national
	// gridgen tier.
	MethodAuto Method = iota
	// MethodDense forces the dense tableau at every size. It is the
	// differential oracle the sparse kernel is tested against, and the
	// kernel a numerically singular sparse solve falls back to.
	MethodDense
)

// MethodRevised is MethodAuto, which runs the sparse revised simplex above
// the dense crossover.
//
// Deprecated: use MethodAuto.
const MethodRevised = MethodAuto

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodDense:
		return "dense"
	default:
		return "Method(?)"
	}
}

// nonbasic status markers.
const (
	atLower int8 = iota
	atUpper
	inBasis
)

// Tolerances the pivot rules share. The phase-1 threshold is phase1Tol.
const (
	// tol is the feasibility and optimality tolerance: the smallest
	// improvement a reduced cost must promise, the smallest pivot the ratio
	// tests accept, the width of the dual ratio test's ties, and how far
	// the primal one's Harris bound relaxes each basic value.
	tol = 1e-9
	// clampNegative is how far below zero a basic value may drift through
	// rounding before move stops snapping it back to zero.
	clampNegative = 1e-11
	// clampZero is the magnitude below which a primal value reads as zero.
	clampZero = 1e-12
)

// phase1Tol is the scale-aware threshold below which a sum of artificial
// values, or a basic value's bound violation, counts as rounding: tol
// scaled by the largest basic value (at least 1) and the row count m.
func phase1Tol(scale float64, m int) float64 {
	return tol * scale * float64(m+1) * 100
}

// kernel is the linear algebra behind the simplex. Both implementations
// keep the basis factored in their own way and agree on everything the
// simplex reads: the column layout of the form, the basic value of each row
// in x, the column image of the entering variable in w.
type kernel interface {
	// reprice prices every column from scratch for the cost row c.
	reprice(c []float64)
	// price offers the columns it prices for c to the entering rule
	// (pick) and returns its choice (enter < 0 when none improves).
	price(c []float64, bland bool) (enter int, dir float64)
	// column writes the basis image B⁻¹A_j of column j into the simplex's w.
	column(j int)
	// update absorbs the basis change the simplex just booked: column col
	// became basic in row `row`, with image w. False means the basis went
	// numerically singular.
	update(row, col int) bool
	// refactorAt factors the warm basis rows and sets the basic values x
	// under the current statuses and bounds. False rejects the basis.
	refactorAt(rows []int) bool
	// dualPrices prices every column for the phase-2 cost into a row the
	// dual phase then carries, and returns it.
	dualPrices() []float64
	// pivotRow returns α = e_rᵀB⁻¹A, valid on the movable columns.
	pivotRow(r int) []float64
	// dualUpdate absorbs a dual pivot like update, with leaveCol the
	// column that left row r, and carries the dual phase's reduced costs d
	// across it, given the pivot row alpha.
	dualUpdate(r, enter, leaveCol int, alpha, d []float64) bool
	// rowDuals returns the row duals y = B⁻ᵀc_B at the optimal basis the
	// phase-2 primal just confirmed.
	rowDuals() []float64
	// reducedCost is c_j − yᵀA_j at that basis; call it after rowDuals.
	reducedCost(j int) float64
	// release returns pooled storage and flushes counters; the kernel is
	// not used afterwards.
	release()
}

// form is the bounded-variable standard form of a Problem, the column
// layout both kernels share: minimize cost·x subject to A·x = rhs,
// 0 ≤ x ≤ upper. Rows with a negative RHS are negated (LE and GE swap) so
// rhs ≥ 0; after the structural columns, each row gets a slack (LE), a
// surplus then an artificial (GE), or an artificial (EQ), and the slack or
// artificial starts basic in its row. Identical layout is what lets a Basis
// captured under one kernel warm-start the other.
type form struct {
	n      int // structural variables
	m      int // constraint rows
	nTotal int // structural + slack/surplus/artificial columns

	rhs   []float64 // normalized b ≥ 0
	upper []float64 // per column (slacks: +Inf)
	cost  []float64 // phase-2 cost per column
	art   []bool    // per column: is artificial
	start []int     // column initially basic in each row
}

// standardRow normalizes row to a nonnegative RHS: its sense, RHS, and the
// sign its coefficients (and its dual) take.
func standardRow(row Constraint) (s Sense, rhs, sign float64) {
	if row.RHS >= 0 {
		return row.Sense, row.RHS, 1
	}
	switch row.Sense {
	case LE:
		return GE, -row.RHS, -1
	case GE:
		return LE, -row.RHS, -1
	}
	return EQ, -row.RHS, -1
}

// newForm lays out p's standard form; loadMatrix fills in its matrix.
func newForm(p *Problem) *form {
	n, m := len(p.obj), len(p.rows)
	maxCols := n + 2*m
	f := &form{
		n:     n,
		m:     m,
		rhs:   make([]float64, m),
		upper: append(make([]float64, 0, maxCols), p.upper...),
		cost:  append(make([]float64, 0, maxCols), p.obj...),
		art:   make([]bool, n, maxCols),
		start: make([]int, m),
	}
	addCol := func(art bool) int {
		f.upper = append(f.upper, math.Inf(1))
		f.cost = append(f.cost, 0)
		f.art = append(f.art, art)
		return len(f.art) - 1
	}
	for i, row := range p.rows {
		s, rhs, _ := standardRow(row)
		f.rhs[i] = rhs
		if s == GE {
			addCol(false) // surplus
		}
		f.start[i] = addCol(s != LE)
	}
	f.nTotal = len(f.art)
	return f
}

// loadMatrix passes every entry of f's constraint matrix to entry: the
// structural coefficients row by row in the order given (duplicate (row,
// var) pairs are passed on for the caller to sum), then one entry per
// surplus (−1), slack or artificial (+1) column, in column order.
func loadMatrix(p *Problem, f *form, entry func(i, j int, v float64)) {
	for i, row := range p.rows {
		_, _, sign := standardRow(row)
		for _, co := range row.Coefs {
			entry(i, co.Var, sign*co.Value)
		}
	}
	col := f.n
	for i, s := range f.start {
		for ; col < s; col++ {
			entry(i, col, -1) // surplus
		}
		entry(i, s, 1)
		col++
	}
}

// simplex is the solver state. x, basis and status are the whole primal
// state: x[i] is the value of column basis[i] (nonbasic columns rest at 0
// or at their upper bound, as status says).
type simplex struct {
	*form
	k       kernel
	carried bool // k carries its prices across pivots (dense); else it re-prices every pivot
	g       *guard
	p       *Problem

	x      []float64 // row → basic value; starts as rhs
	basis  []int     // row → basic column
	status []int8    // per column
	w      []float64 // row space: column image of the entering variable
	block  []int     // ratioTest's scratch (capacity m): the rows that can block

	iters int
	max   int
}

// newSimplex lowers p for the dense kernel, or for the sparse one when
// sparse is set, at the all-slack/artificial starting basis.
func newSimplex(p *Problem, opts Options, g *guard, sparse bool) *simplex {
	var f *form
	var sf *standardForm
	if sparse {
		sf = newStandardForm(p)
		f = &sf.form
	} else {
		f = newForm(p)
	}
	s := &simplex{
		form:   f,
		g:      g,
		p:      p,
		x:      f.rhs,
		basis:  append([]int(nil), f.start...),
		status: make([]int8, f.nTotal),
		max:    opts.maxIter(f.m, f.nTotal),
	}
	for _, c := range s.basis {
		s.status[c] = inBasis
	}
	if sparse {
		s.k = newRevised(s, sf)
	} else {
		s.k = newDense(s)
		s.carried = true
	}
	return s
}

// solve is the entry point used by Problem.SolveOpts. Above the dense
// crossover it solves on the sparse kernel, which hands a basis it finds
// numerically singular to a cold solve on the dense one; at or below it, or
// under MethodDense, on the dense kernel (warm basis and all).
func solve(p *Problem, opts Options, g *guard) (*Solution, error) {
	sparse := opts.Method != MethodDense && len(p.rows) > revisedFinishMaxRows
	if sparse {
		mRevSolves.Inc()
	}
	if opts.WarmStart != nil {
		if sol, err, ok := solveWarm(p, opts, g, sparse); ok {
			return sol, err
		}
		mWarmFallbacks.Inc()
	}
	s := newSimplex(p, opts, g, sparse)
	defer s.k.release()
	switch st := s.run(); st {
	case statusAborted:
		return nil, p.solveErr("lp.pivot", Optimal, s.iters, g.err)
	case statusNumerical:
		mRevDenseFallbacks.Inc()
		opts.Method, opts.WarmStart = MethodDense, nil
		sol, err := solve(p, opts, g)
		if sol != nil {
			sol.Iterations += s.iters
		}
		return sol, err
	case Infeasible, Unbounded, IterationLimit, Canceled, DeadlineExceeded:
		return &Solution{Status: st, Iterations: s.iters}, nil
	}
	return s.extract(), nil
}

// run executes both phases. Returns Optimal on success.
func (s *simplex) run() Status {
	hasArt := false
	for _, isArt := range s.art {
		if isArt {
			hasArt = true
			break
		}
	}
	if hasArt {
		mPhase1.Inc()
		c1 := make([]float64, s.nTotal)
		for j, isArt := range s.art {
			if isArt {
				c1[j] = 1
			}
		}
		if st := s.primal(c1); st != Optimal {
			return st
		}
		// Infeasible if any artificial remains positive.
		artSum := 0.0
		for i, bc := range s.basis {
			if s.art[bc] {
				artSum += s.x[i]
			}
		}
		scale := 1.0
		for _, v := range s.x {
			if v > scale {
				scale = v
			}
		}
		if artSum > phase1Tol(scale, s.m) {
			return Infeasible
		}
		s.clampArtificials()
	}
	return s.primal(s.cost)
}

// clampArtificials caps every artificial's bound at zero so none can
// (re-)enter phase 2 at a positive value.
func (s *simplex) clampArtificials() {
	for j, isArt := range s.art {
		if isArt {
			s.upper[j] = 0
		}
	}
}

// pricingHook, when non-nil, observes the simplex after every pivot and
// bound flip of the primal and dual phases, with the cost row c being
// minimized. Only tests set it (export_test.go); it is nil in every other
// solve.
var pricingHook func(s *simplex, c []float64)

// primal runs bounded-variable pivots minimizing c over the current state.
//
// A kernel that carries its prices across pivots (the dense tableau's
// reduced-cost row) prices from them, and confirms both verdicts against a
// fresh pricing pass: when the carried prices find no improving column,
// before Optimal is returned, and when its entering column has an unbounded
// ray, before Unbounded is returned. So rounding drift in the carried row
// can cost a pivot but never a wrong Optimal or Unbounded. A kernel that
// does not carry them re-prices at every pivot.
func (s *simplex) primal(c []float64) Status {
	bland := false
	noProgress := 0
	lastObj := math.Inf(1)
	if s.carried {
		s.k.reprice(c)
	}
	for s.iters < s.max {
		if s.g.due(s.iters) {
			if st, stop := s.g.at("lp.pivot"); stop {
				return st
			}
		}
		// Objective for progress tracking.
		obj := 0.0
		for j, st := range s.status {
			if st == atUpper {
				obj += c[j] * s.upper[j]
			}
		}
		for i, bc := range s.basis {
			obj += c[bc] * s.x[i]
		}
		if obj < lastObj-tol {
			lastObj = obj
			noProgress = 0
		} else if noProgress++; noProgress > 2*(s.m+10) {
			if !bland {
				mBlandSwitch.Inc()
			}
			bland = true
		}

		fresh := !s.carried // the prices were just computed from scratch
		if fresh {
			s.k.reprice(c)
		}
		enter, enterDir := s.k.price(c, bland)
		if enter < 0 && !fresh {
			s.k.reprice(c)
			fresh = true
			enter, enterDir = s.k.price(c, bland)
		}
		if enter < 0 {
			return Optimal
		}
		s.k.column(enter)
		limit, leave, leaveToUpper := s.ratioTest(enter, enterDir)
		if math.IsInf(limit, 1) && !fresh {
			// An unbounded ray is a verdict too: confirm the entering
			// choice against a fresh pricing pass before reporting it.
			s.k.reprice(c)
			if enter, enterDir = s.k.price(c, bland); enter < 0 {
				return Optimal
			}
			s.k.column(enter)
			limit, leave, leaveToUpper = s.ratioTest(enter, enterDir)
		}
		if math.IsInf(limit, 1) {
			return Unbounded
		}
		s.iters++
		s.move(enterDir, limit)
		if leave < 0 {
			// Bound flip: x_enter runs to its opposite bound.
			if enterDir > 0 {
				s.status[enter] = atUpper
			} else {
				s.status[enter] = atLower
			}
		} else {
			enterValue := limit // rose from its lower bound (0)
			if enterDir < 0 {
				enterValue = s.upper[enter] - limit // fell from its upper bound
			}
			if leaveToUpper {
				s.status[s.basis[leave]] = atUpper
			} else {
				s.status[s.basis[leave]] = atLower
			}
			s.basis[leave] = enter
			s.x[leave] = enterValue
			s.status[enter] = inBasis
			if !s.k.update(leave, enter) {
				return statusNumerical
			}
		}
		if pricingHook != nil {
			pricingHook(s, c)
		}
	}
	return IterationLimit
}

// pick is the entering rule's running choice over the columns priced so
// far, in index order: Dantzig's largest improvement with first-lowest-index
// ties, or under Bland's rule the first improving column. A column at lower
// improves by −d_j when d_j < −tol (it increases), one at upper by d_j when
// d_j > tol (it decreases). The kernels price the columns that canEnter and
// offer them; enter < 0 means none improves.
type pick struct {
	enter int
	dir   float64 // +1 increasing from lower, −1 decreasing from upper
	best  float64 // the improvement to beat: tol, then the pick's |d_j|
	bland bool
}

func newPick(bland bool) pick {
	return pick{enter: -1, dir: 1, best: tol, bland: bland}
}

// offer considers column j, with status st and reduced cost r, and reports
// whether the scan can stop (Bland's rule took it).
func (e *pick) offer(j int, st int8, r float64) (stop bool) {
	switch {
	case st == atLower && r < -e.best:
		e.enter, e.dir, e.best = j, 1, -r
	case st == atUpper && r > e.best:
		e.enter, e.dir, e.best = j, -1, r
	default:
		return false
	}
	return e.bland
}

// canEnter reports whether a column with the given status and upper bound
// is nonbasic and may move off its bound: not basic, and not at lower while
// fixed at zero (clamped artificials).
func canEnter(status int8, upper float64) bool {
	return status == atUpper || status == atLower && upper != 0
}

// ratioTest finds how far x_enter can move in direction enterDir: moving it
// by Δ·enterDir changes basic values by −Δ·enterDir·w, so a basic value
// blocks at 0 when it falls and at its upper bound when it rises. It is
// Harris's two-pass test. Pass 1 bounds the step with every basic value's
// bounds relaxed by tol. When x_enter's own opposite bound lies within that
// bound, x_enter flips (leave < 0). Otherwise pass 2 takes, among the rows
// that block within the bound, the largest |w_i| (ties to the lowest basic
// column index), and steps to where that row blocks, never backwards: a
// basic value that drifted outside its bounds leaves at step 0. So a
// rounding-level entry never becomes the pivot just because it blocks
// first. limit = +Inf when nothing blocks.
func (s *simplex) ratioTest(enter int, enterDir float64) (limit float64, leave int, leaveToUpper bool) {
	basis, x := s.basis, s.x
	// ratio is the step at which row i blocks: at 0 when coef > 0, at its
	// upper bound when coef < 0, relaxed by slack; +Inf when it never does.
	ratio := func(i int, coef, slack float64) float64 {
		switch {
		case coef > tol:
			return (x[i] + slack) / coef
		case coef < -tol:
			return (s.upper[basis[i]] - x[i] + slack) / -coef
		}
		return math.Inf(1)
	}
	if s.block == nil {
		s.block = make([]int, 0, s.m)
	}
	block := s.block[:0]
	bound := math.Inf(1)
	for i, wi := range s.w {
		if r := ratio(i, enterDir*wi, tol); r < math.Inf(1) {
			block = append(block, i)
			bound = min(bound, r)
		}
	}
	if u := s.upper[enter]; u <= bound {
		return u, -1, false // a flip, or +Inf: nothing blocks
	}
	// The bound is finite, so the row that set it blocks within it.
	leave = -1
	best := 0.0
	for _, i := range block {
		coef := enterDir * s.w[i]
		a := math.Abs(coef)
		if a < best || a == best && leave >= 0 && basis[i] > basis[leave] {
			continue
		}
		if r := ratio(i, coef, 0); r <= bound {
			limit, leave, leaveToUpper, best = r, i, coef < 0, a
		}
	}
	return max(limit, 0), leave, leaveToUpper
}

// move shifts the entering column, whose image is in w, by delta in
// direction dir and updates the basic values accordingly.
func (s *simplex) move(dir, delta float64) {
	if delta == 0 {
		return
	}
	x := s.x
	for i, wi := range s.w {
		x[i] -= dir * delta * wi
		if x[i] < 0 && x[i] > -clampNegative {
			x[i] = 0
		}
	}
}

// extract reads out the solution: primal values from the basis, row duals
// from the kernel at the final basis, in the caller's row signs, and bound
// duals from the reduced costs.
func (s *simplex) extract() *Solution {
	sol := &Solution{
		Status:     Optimal,
		X:          make([]float64, s.n),
		Duals:      make([]float64, s.m),
		BoundDuals: make([]float64, s.n),
		Iterations: s.iters,
	}
	for j := 0; j < s.n; j++ {
		if s.status[j] == atUpper {
			sol.X[j] = s.upper[j]
		}
	}
	for i, bc := range s.basis {
		if bc < s.n {
			sol.X[bc] = s.x[i]
		}
	}
	obj := 0.0
	for j, x := range sol.X {
		if math.Abs(x) < clampZero {
			sol.X[j], x = 0, 0
		}
		obj += s.p.obj[j] * x
	}
	sol.Objective = obj
	sol.basis = s.captureBasis()

	y := s.k.rowDuals()
	for i, row := range s.p.rows {
		_, _, sign := standardRow(row)
		sol.Duals[i] = sign * y[i]
	}
	// Bound duals: reduced cost of structural variables nonbasic at their
	// upper bound (relaxing u_j by δ changes the optimum by r_j·δ ≤ 0). A
	// nonbasic variable fixed at u_j = 0 rests at both bounds; the negative
	// part of its reduced cost belongs to the upper one.
	for j := 0; j < s.n; j++ {
		fixed := s.upper[j] == 0
		if s.status[j] == inBasis || (s.status[j] == atLower && !fixed) {
			continue
		}
		r := s.k.reducedCost(j)
		if fixed {
			r = math.Min(r, 0)
		}
		sol.BoundDuals[j] = r
	}
	return sol
}
