// Sparse revised simplex with bounded variables.
//
// MethodRevised solves the same bounded-variable standard form as
// MethodBounded (bounded.go) but never materializes the dense B⁻¹A tableau.
// It keeps the constraint matrix in CSC form (sparse.go), represents B⁻¹ as
// a sparse LU factorization plus product-form eta updates (lu.go), prices
// with a BTRAN solve per iteration (partial pricing above a size threshold),
// and runs the ratio test on the FTRAN image of the entering column. Per
// pivot the work is O(nnz) instead of O(m·nTotal), which is what makes the
// national-scale gridgen tier tractable (BenchmarkRevisedNationalGrid).
//
// Determinism contract vs the dense oracle (DESIGN.md §15): the pivot rules
// — Dantzig entering with first-lowest-index ties, the Bland anti-cycling
// switch, the ratio-test tolerances and tie-breaks, the bound-flip and
// clamping behavior — are copied from boundedTableau.simplex line for line,
// so both methods walk equivalent vertex paths; only the floating-point
// route to each number differs (reduced costs come from y = B⁻ᵀc_B instead
// of the accumulated tableau). Sparse arithmetic therefore agrees with the
// oracle to 1e-9 but not to the last ulp — refactorization rounds
// differently than accumulated pivoting, the same reason §12 calls warm
// starts tolerance-pure. Byte-identity on small instances is achieved the
// only way it can be: problems at or below revisedFinishMaxRows are routed
// to the dense bounded solver outright (the sparse machinery has nothing
// to win there anyway), which is what lets -lp-method=revised reproduce
// the golden fixture bit for bit (TestGoldenFig5Revised). Above the
// crossover the solve and its extraction are fully sparse and agreement is
// 1e-9-differential, proven by TestRevisedVsDenseDifferential.
//
// Warm re-entry (dualSimplex) is a bounded dual simplex on the same LU/eta
// core. An outage only tightens bounds, so the parent's optimal basis stays
// dual feasible while its basic values break their new bounds. The dual
// phase checks dual feasibility once (one BTRAN, one full pricing pass),
// then repeatedly takes the basic variable with the largest bound violation
// out at that bound: its pivot row α = e_rᵀB⁻¹A comes from one BTRAN and a
// dot product per nonbasic CSC column; the textbook ratio test picks the
// entering column (minimum |d_j/α_j| over the sign-eligible columns, ties to
// the larger |α_j|, then the lower index); the entering column is FTRANed,
// the basic values updated and the change absorbed as an eta exactly as in
// the primal loop. Reduced costs are carried (d −= (d_q/α_q)·α) and
// re-priced from scratch after every refactorization. Once the basis is
// primal feasible the primal simplex takes over, so every Optimal still
// rests on a fresh pricing pass. Anything the dual phase cannot finish
// falls back to the cold solve (warmstart.go lists the cases).
package lp

import "math"

// revisedFinishMaxRows is the dense crossover: at or below this many
// constraint rows MethodRevised delegates the whole solve to the dense
// bounded solver (byte-identical results to MethodBounded by construction;
// dense is at least as fast at these sizes); above it, the sparse solver
// runs end to end. A package variable so the differential battery can force
// the sparse path on instances of every size.
var revisedFinishMaxRows = 512

const (
	// revisedPartialPricingMin is the column count above which pricing
	// scans cyclic blocks instead of every column per iteration.
	revisedPartialPricingMin = 4096
	// revisedPricingBlock is the partial-pricing block width.
	revisedPricingBlock = 1024
)

// statusNumerical is an internal status: the LU refactorization found the
// basis numerically singular mid-solve. The caller falls back to the dense
// method, which pivots through near-singularity instead of factoring.
const statusNumerical Status = -2

// statusNotDualFeasible is an internal status: the warm basis is neither
// primal nor dual feasible, so neither simplex can start from it and the
// caller falls back to the cold two-phase solve.
const statusNotDualFeasible Status = -3

type revisedSolver struct {
	tol        float64
	forceBland bool
	skipDuals  bool
	g          *guard
	p          *Problem
	sf         *standardForm
	lu         *luState

	basis  []int     // slot → basic column
	status []int8    // per column
	upper  []float64 // per column (artificials clamped to 0 after phase 1)
	xb     []float64 // slot → basic value (the dense method's rhs)

	iters int
	max   int

	priceCursor int

	// Counter deltas, flushed to the lp.revised.* telemetry at solver exit.
	cFactor, cEta, cRefactor, cFtran, cBtran int64

	cb     []float64 // slot space: costs of basic columns
	w      []float64 // slot space: FTRAN image of the entering column
	y      []float64 // row space: pricing duals
	colBuf []float64 // row space scatter buffer, kept all-zero between uses
}

// solveRevised is the entry point used by Problem.SolveOpts for
// MethodRevised.
func solveRevised(p *Problem, opts Options, g *guard) (*Solution, error) {
	// Below the dense crossover the dense bounded solver is at least as
	// fast and is the byte-identity oracle; hand it the whole solve (warm
	// basis and all — the column layouts match by construction).
	if len(p.rows) <= revisedFinishMaxRows {
		mRevDenseFinishes.Inc()
		return solveBounded(p, opts, g)
	}
	mRevSolves.Inc()
	if opts.WarmStart != nil {
		if sol, err, ok := solveRevisedWarm(p, opts, g); ok {
			return sol, err
		}
		mWarmFallbacks.Inc()
	}
	rs := newRevisedSolver(p, opts, g)
	defer rs.flush()
	st := rs.run()
	switch st {
	case statusAborted:
		return nil, p.solveErr("lp.pivot", Optimal, rs.iters, g.err)
	case statusNumerical:
		return rs.denseFallback(p, opts)
	case Infeasible, Unbounded, IterationLimit, Canceled, DeadlineExceeded:
		return &Solution{Status: st, Iterations: rs.iters}, nil
	}
	return rs.extractSparse(p)
}

// solveRevisedWarm re-enters a revised solve at the supplied basis:
// refactorization, the bounded dual simplex back to primal feasibility, then
// the primal simplex to a freshly priced optimum. The boolean reports
// whether the warm attempt produced a usable outcome.
func solveRevisedWarm(p *Problem, opts Options, g *guard) (*Solution, error, bool) {
	mWarmAttempts.Inc()
	rs := newRevisedSolver(p, opts, g)
	defer rs.flush()
	if !rs.applyWarmBasis(opts.WarmStart) {
		return nil, nil, false
	}
	st := rs.dualSimplex()
	if st == Optimal {
		st = rs.simplex(rs.sf.cost)
	}
	switch st {
	case statusAborted:
		return nil, p.solveErr("lp.pivot", Optimal, rs.iters, g.err), true
	case Canceled, DeadlineExceeded:
		sol := &Solution{Status: st, Iterations: rs.iters, WarmStarted: true}
		return sol, nil, true
	case Optimal:
		// Proceed to extraction below.
	default:
		// The dual phase could not start or finish (basis not dual
		// feasible, empty ratio test, tiny pivot, iteration limit,
		// numerical failure), or the primal phase ended Unbounded or at
		// the iteration limit: distrust the basis and re-derive from a
		// cold start, which also owns the Infeasible verdict.
		mWarmPivots.Add(int64(rs.iters))
		return nil, nil, false
	}
	sol, err := rs.extractSparse(p)
	if err != nil {
		mWarmPivots.Add(int64(rs.iters))
		return nil, nil, false
	}
	mWarmSolves.Inc()
	sol.WarmStarted = true
	return sol, nil, true
}

func newRevisedSolver(p *Problem, opts Options, g *guard) *revisedSolver {
	sf := newStandardForm(p)
	rs := &revisedSolver{
		tol:        opts.tol(),
		forceBland: opts.ForceBland,
		skipDuals:  opts.SkipDuals,
		g:          g,
		p:          p,
		sf:         sf,
		lu:         newLUState(sf.m),
		basis:      append([]int(nil), sf.startBasis...),
		status:     make([]int8, sf.nTotal),
		upper:      append([]float64(nil), sf.upper...),
		xb:         append([]float64(nil), sf.rhs...),
		cb:         make([]float64, sf.m),
		w:          make([]float64, sf.m),
		y:          make([]float64, sf.m),
		colBuf:     make([]float64, sf.m),
	}
	for _, c := range rs.basis {
		rs.status[c] = inBasis
	}
	rs.max = opts.maxIter(sf.m, sf.nTotal)
	// The starting basis is all slack/artificial unit columns — never
	// singular.
	rs.refactorNow()
	return rs
}

func (rs *revisedSolver) flush() {
	mRevFactorizations.Add(rs.cFactor)
	mRevEtaUpdates.Add(rs.cEta)
	mRevRefactorTriggers.Add(rs.cRefactor)
	mRevFtranSolves.Add(rs.cFtran)
	mRevBtranSolves.Add(rs.cBtran)
}

func (rs *revisedSolver) refactorNow() bool {
	if !rs.lu.refactor(rs.sf, rs.basis) {
		return false
	}
	rs.cFactor++
	return true
}

// run executes both phases, mirroring boundedTableau.run.
func (rs *revisedSolver) run() Status {
	sf := rs.sf
	hasArt := false
	for _, isArt := range sf.art {
		if isArt {
			hasArt = true
			break
		}
	}
	if hasArt {
		mPhase1.Inc()
		c1 := make([]float64, sf.nTotal)
		for j, isArt := range sf.art {
			if isArt {
				c1[j] = 1
			}
		}
		if st := rs.simplex(c1); st != Optimal {
			return st
		}
		artSum := 0.0
		for i, bc := range rs.basis {
			if sf.art[bc] {
				artSum += rs.xb[i]
			}
		}
		scale := 1.0
		for _, v := range rs.xb {
			if v > scale {
				scale = v
			}
		}
		if artSum > rs.tol*scale*float64(sf.m+1)*100 {
			return Infeasible
		}
		for j, isArt := range sf.art {
			if isArt {
				rs.upper[j] = 0
			}
		}
	}
	return rs.simplex(sf.cost)
}

// simplex runs bounded-variable pivots minimizing c. The control flow —
// progress tracking, Bland switch, entering/leaving rules, flips, clamps —
// mirrors boundedTableau.simplex; only the linear algebra is factored.
func (rs *revisedSolver) simplex(c []float64) Status {
	m, nTotal := rs.sf.m, rs.sf.nTotal
	bland := rs.forceBland
	noProgress := 0
	lastObj := math.Inf(1)
	for rs.iters < rs.max {
		if rs.g.due(rs.iters) {
			if st, stop := rs.g.at("lp.pivot"); stop {
				return st
			}
		}
		obj := 0.0
		for j := 0; j < nTotal; j++ {
			if rs.status[j] == atUpper {
				obj += c[j] * rs.upper[j]
			}
		}
		for i, bc := range rs.basis {
			obj += c[bc] * rs.xb[i]
		}
		if obj < lastObj-rs.tol {
			lastObj = obj
			noProgress = 0
		} else if noProgress++; noProgress > 2*(m+10) {
			if !bland {
				mBlandSwitch.Inc()
			}
			bland = true
		}

		// Pricing duals y = B⁻ᵀ c_B, then reduced costs per column as a
		// sparse dot against the original matrix.
		for i, bc := range rs.basis {
			rs.cb[i] = c[bc]
		}
		rs.lu.btranInto(rs.y, rs.cb)
		rs.cBtran++

		enter, enterDir := rs.price(c, bland)
		if enter < 0 {
			return Optimal
		}

		// Entering column image w = B⁻¹ A_enter (the dense tableau column).
		rs.ftranCol(enter)

		// Ratio test: identical limits and tie-breaks to the dense method.
		limit := math.Inf(1)
		if u := rs.upper[enter]; !math.IsInf(u, 1) {
			limit = u // full bound-flip distance
		}
		leave := -1
		leaveToUpper := false
		for i := 0; i < m; i++ {
			coef := enterDir * rs.w[i]
			bc := rs.basis[i]
			if coef > rs.tol {
				ratio := rs.xb[i] / coef
				if ratio < limit-rs.tol ||
					(ratio < limit+rs.tol && leave >= 0 && bc < rs.basis[leave]) {
					limit = ratio
					leave = i
					leaveToUpper = false
				}
			} else if coef < -rs.tol {
				if ub := rs.upper[bc]; !math.IsInf(ub, 1) {
					ratio := (ub - rs.xb[i]) / -coef
					if ratio < limit-rs.tol ||
						(ratio < limit+rs.tol && leave >= 0 && bc < rs.basis[leave]) {
						limit = ratio
						leave = i
						leaveToUpper = true
					}
				}
			}
		}
		if math.IsInf(limit, 1) {
			return Unbounded
		}
		rs.iters++
		if leave < 0 {
			// Bound flip: x_enter runs to its opposite bound.
			rs.move(enterDir, limit)
			if enterDir > 0 {
				rs.status[enter] = atUpper
			} else {
				rs.status[enter] = atLower
			}
			continue
		}
		rs.move(enterDir, limit)
		var enterValue float64
		if enterDir > 0 {
			enterValue = limit
		} else {
			enterValue = rs.upper[enter] - limit
		}
		outCol := rs.basis[leave]
		if leaveToUpper {
			rs.status[outCol] = atUpper
		} else {
			rs.status[outCol] = atLower
		}
		rs.basis[leave] = enter
		rs.xb[leave] = enterValue
		rs.status[enter] = inBasis

		// Absorb the basis change as an eta, refactoring on the update-count
		// trigger or when the pivot element is too small to absorb stably.
		if rs.lu.update(leave, rs.w) {
			rs.cEta++
			if rs.lu.needsRefactor() {
				rs.cRefactor++
				if !rs.refactorNow() {
					return statusNumerical
				}
			}
		} else {
			rs.cRefactor++
			if !rs.refactorNow() {
				return statusNumerical
			}
		}
	}
	return IterationLimit
}

// price selects the entering column: Dantzig with first-lowest-index ties
// (first candidate under Bland), over all columns or — above the partial
// pricing threshold — cyclic blocks starting at the pricing cursor.
func (rs *revisedSolver) price(c []float64, bland bool) (int, float64) {
	nTotal := rs.sf.nTotal
	if bland || nTotal < revisedPartialPricingMin {
		return rs.priceRange(c, 0, nTotal, bland)
	}
	start := rs.priceCursor % nTotal
	for scanned := 0; scanned < nTotal; {
		hi := start + revisedPricingBlock
		if hi > nTotal {
			hi = nTotal
		}
		if j, dir := rs.priceRange(c, start, hi, false); j >= 0 {
			rs.priceCursor = hi % nTotal
			return j, dir
		}
		scanned += hi - start
		start = hi % nTotal
	}
	return -1, 0
}

func (rs *revisedSolver) priceRange(c []float64, lo, hi int, bland bool) (int, float64) {
	enter := -1
	enterDir := 1.0
	best := rs.tol
	for j := lo; j < hi; j++ {
		if rs.status[j] == inBasis {
			continue
		}
		if rs.upper[j] == 0 && rs.status[j] == atLower {
			continue // fixed at zero (clamped artificials)
		}
		r := c[j] - rs.priceDot(j)
		var imp float64
		var dir float64
		if rs.status[j] == atLower && r < 0 {
			imp, dir = -r, 1
		} else if rs.status[j] == atUpper && r > 0 {
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

// priceDot is yᵀA_j over the sparse column.
func (rs *revisedSolver) priceDot(j int) float64 {
	rows, vals := rs.sf.a.col(j)
	s := 0.0
	for k, r := range rows {
		s += rs.y[r] * vals[k]
	}
	return s
}

// ftranCol computes w = B⁻¹ A_j via the scatter buffer (restored to zero
// before returning).
func (rs *revisedSolver) ftranCol(j int) {
	rows, vals := rs.sf.a.col(j)
	for k, r := range rows {
		rs.colBuf[r] = vals[k]
	}
	rs.lu.ftranInto(rs.w, rs.colBuf)
	rs.cFtran++
	for _, r := range rows {
		rs.colBuf[r] = 0
	}
}

// move shifts the entering column by delta in direction dir, updating basic
// values from its FTRAN image in rs.w — the revised counterpart of
// boundedTableau.move, including its tiny-negative clamp.
func (rs *revisedSolver) move(dir, delta float64) {
	if delta == 0 {
		return
	}
	for i := 0; i < rs.sf.m; i++ {
		rs.xb[i] -= dir * delta * rs.w[i]
		if rs.xb[i] < 0 && rs.xb[i] > -1e-11 {
			rs.xb[i] = 0
		}
	}
}

// applyWarmBasis reconstitutes the solver at the supplied basis: statuses
// restored, the basis refactorized (LU instead of the dense Gauss-Jordan)
// and basic values recomputed as xb = B⁻¹(b − Σ u_j A_j over
// nonbasic-at-upper columns). It rejects only structurally unusable bases;
// basic values outside their perturbed bounds are dualSimplex's to repair.
// Bases from either method are accepted (the column layouts are identical
// by construction).
func (rs *revisedSolver) applyWarmBasis(b *Basis) bool {
	sf := rs.sf
	if b == nil || b.n != sf.n || b.m != sf.m || b.nTotal != sf.nTotal ||
		len(b.rows) != sf.m || len(b.status) != sf.nTotal {
		return false
	}
	inBasisCount := 0
	for j, st := range b.status {
		switch st {
		case inBasis:
			inBasisCount++
		case atUpper:
			if math.IsInf(rs.upper[j], 1) {
				return false // bound vanished; the status is meaningless
			}
		case atLower:
			// Always valid.
		default:
			return false
		}
	}
	if inBasisCount != sf.m {
		return false
	}
	seen := make([]bool, sf.nTotal)
	for _, col := range b.rows {
		if col < 0 || col >= sf.nTotal || b.status[col] != inBasis || seen[col] {
			return false
		}
		seen[col] = true
	}
	copy(rs.basis, b.rows)
	copy(rs.status, b.status)
	if !rs.refactorNow() {
		return false // singular for the perturbed matrix
	}
	// Artificials never re-enter a warm phase 2.
	for j, isArt := range sf.art {
		if isArt {
			rs.upper[j] = 0
		}
	}
	// Basic values: accumulate the at-upper offsets in row space, then one
	// FTRAN. rs.y doubles as the row-space scratch here (pricing overwrites
	// it before first use).
	copy(rs.y, sf.rhs)
	for j, st := range rs.status {
		if st != atUpper {
			continue
		}
		u := rs.upper[j]
		if u == 0 {
			continue
		}
		rows, vals := sf.a.col(j)
		for k, r := range rows {
			rs.y[r] -= u * vals[k]
		}
	}
	rs.lu.ftranInto(rs.xb, rs.y)
	rs.cFtran++
	return true
}

// dualSimplex is the warm re-entry's bounded dual simplex. A perturbation
// that only moves bounds — an outage cutting a capacity to zero — leaves
// the reduced costs of the parent's optimal basis untouched, so the basis
// stays dual feasible while its basic values break their new bounds. Each
// dual pivot removes the worst violation, leaving the basis at the violated
// bound, and keeps every reduced cost on its feasible side. It returns
// Optimal once the basis is primal feasible (at once when it already was),
// with the basic values clamped into their bounds; the caller finishes with
// the primal simplex, whose fresh pricing confirms optimality. Any other
// status sends the caller to the cold path: statusNotDualFeasible, Infeasible
// (empty ratio test: no vertex satisfies the violated row), statusNumerical,
// IterationLimit, or a cancellation.
func (rs *revisedSolver) dualSimplex() Status {
	r := leavingRow(rs.xb, rs.basis, rs.upper, rs.tol)
	if r < 0 {
		return Optimal
	}
	nTotal := rs.sf.nTotal
	d := make([]float64, nTotal)     // reduced costs, carried across pivots
	alpha := make([]float64, nTotal) // pivot row e_rᵀB⁻¹A over nonbasic columns
	// ρ = e_rᵀB⁻¹ lives in rs.y, whose pricing duals are spent once d is
	// priced; e_r is built in the all-zero scatter buffer rs.colBuf.
	rho := rs.y
	rs.reducedCosts(d)
	if !dualFeasible(d, rs.status, rs.upper, rs.tol) {
		return statusNotDualFeasible
	}
	for ; r >= 0; r = leavingRow(rs.xb, rs.basis, rs.upper, rs.tol) {
		if rs.iters >= rs.max {
			return IterationLimit
		}
		if rs.g.due(rs.iters) {
			if st, stop := rs.g.at("lp.pivot"); stop {
				return st
			}
		}
		leaveCol := rs.basis[r]
		toUpper := rs.xb[r] > 0 // above its upper bound; else below zero
		target := 0.0
		if toUpper {
			target = rs.upper[leaveCol]
		}

		rs.colBuf[r] = 1
		rs.lu.btranInto(rho, rs.colBuf)
		rs.colBuf[r] = 0
		rs.cBtran++

		// α_j = ρ·A_j over the movable columns; dualRatio skips the rest.
		for j := 0; j < nTotal; j++ {
			if !movable(rs.status[j], rs.upper[j]) {
				continue
			}
			rows, vals := rs.sf.a.col(j)
			a := 0.0
			for k, i := range rows {
				a += rho[i] * vals[k]
			}
			alpha[j] = a
		}
		enter := dualRatio(alpha, d, rs.status, rs.upper, toUpper, rs.tol)
		if enter < 0 {
			return Infeasible
		}
		rs.ftranCol(enter)
		wr := rs.w[r]
		if math.Abs(wr) < rs.tol || wr*alpha[enter] <= 0 {
			return statusNumerical
		}

		// Primal step: x_enter moves by t, which lands x_r on its bound.
		t := (rs.xb[r] - target) / wr
		enterValue := t
		if rs.status[enter] == atUpper {
			enterValue += rs.upper[enter]
		}
		rs.move(1, t)
		rs.iters++

		// Dual step: d −= θ·α with θ = d_q/α_q zeroes the entering reduced
		// cost; the leaving column's becomes −θ.
		theta := d[enter] / alpha[enter]
		for j := 0; j < nTotal; j++ {
			if movable(rs.status[j], rs.upper[j]) {
				d[j] -= theta * alpha[j]
			}
		}
		d[enter] = 0
		d[leaveCol] = -theta

		if toUpper && rs.upper[leaveCol] > 0 {
			rs.status[leaveCol] = atUpper
		} else {
			rs.status[leaveCol] = atLower
		}
		rs.basis[r] = enter
		rs.xb[r] = enterValue
		rs.status[enter] = inBasis

		if rs.lu.update(r, rs.w) {
			rs.cEta++
			if !rs.lu.needsRefactor() {
				continue
			}
		}
		rs.cRefactor++
		if !rs.refactorNow() {
			return statusNumerical
		}
		rs.reducedCosts(d)
	}
	return Optimal
}

// reducedCosts prices every column at the current basis from scratch:
// d_j = c_j − yᵀA_j with y = B⁻ᵀc_B, and 0 for basic columns.
func (rs *revisedSolver) reducedCosts(d []float64) {
	c := rs.sf.cost
	for i, bc := range rs.basis {
		rs.cb[i] = c[bc]
	}
	rs.lu.btranInto(rs.y, rs.cb)
	rs.cBtran++
	for j := range d {
		if rs.status[j] == inBasis {
			d[j] = 0
		} else {
			d[j] = c[j] - rs.priceDot(j)
		}
	}
}

// captureBasis snapshots the solver's final basis for reuse. The layout is
// identical to the dense bounded tableau's, so either warm path accepts it.
func (rs *revisedSolver) captureBasis() *Basis {
	return &Basis{
		n:      rs.sf.n,
		m:      rs.sf.m,
		nTotal: rs.sf.nTotal,
		rows:   append([]int(nil), rs.basis...),
		status: append([]int8(nil), rs.status...),
	}
}

// denseFallback hands the whole solve to the dense bounded method (cold).
// Correctness is never affected — only cost — and the event is counted.
func (rs *revisedSolver) denseFallback(p *Problem, opts Options) (*Solution, error) {
	mRevDenseFallbacks.Inc()
	opts.WarmStart = nil
	sol, err := solveBounded(p, opts, rs.g)
	if sol != nil {
		sol.Iterations += rs.iters
	}
	return sol, err
}

// extractSparse reads the solution directly from the solver state: primal
// values from xb, duals from a BTRAN against a fresh factorization of the
// final basis (the sparse analogue of the dense extractor's Bᵀy = c_B
// solve).
func (rs *revisedSolver) extractSparse(p *Problem) (*Solution, error) {
	sf := rs.sf
	sol := &Solution{
		Status:     Optimal,
		X:          make([]float64, sf.n),
		Duals:      make([]float64, sf.m),
		BoundDuals: make([]float64, sf.n),
		Iterations: rs.iters,
	}
	for j := 0; j < sf.n; j++ {
		if rs.status[j] == atUpper {
			sol.X[j] = rs.upper[j]
		}
	}
	for i, bc := range rs.basis {
		if bc < sf.n {
			sol.X[bc] = rs.xb[i]
		}
	}
	for j := range sol.X {
		if math.Abs(sol.X[j]) < 1e-12 {
			sol.X[j] = 0
		}
	}
	obj := 0.0
	for j, x := range sol.X {
		obj += p.obj[j] * x
	}
	sol.Objective = obj
	sol.basis = rs.captureBasis()

	if rs.skipDuals {
		return sol, nil
	}
	// Fresh factorization at the final basis (drops eta roundoff), then one
	// BTRAN for the row duals.
	if !rs.refactorNow() {
		return nil, p.solveErr("dual-extraction", Optimal, rs.iters, ErrSingularBasis)
	}
	for i, bc := range rs.basis {
		rs.cb[i] = sf.cost[bc]
	}
	rs.lu.btranInto(rs.y, rs.cb)
	rs.cBtran++
	for i, row := range p.rows {
		d := rs.y[i]
		if row.RHS < 0 {
			d = -d
		}
		sol.Duals[i] = d
	}
	// Bound duals: reduced cost of structural variables nonbasic at their
	// upper bound, or the negative part of it for a nonbasic variable fixed
	// at u_j = 0 (see boundedTableau.extract).
	for j := 0; j < sf.n; j++ {
		fixed := rs.upper[j] == 0
		if rs.status[j] == inBasis || (rs.status[j] == atLower && !fixed) {
			continue
		}
		r := sf.cost[j] - rs.priceDot(j)
		if fixed {
			r = math.Min(r, 0)
		}
		sol.BoundDuals[j] = r
	}
	return sol, nil
}
