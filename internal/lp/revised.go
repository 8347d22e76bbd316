// The sparse revised kernel of the bounded simplex (simplex.go), which
// MethodAuto runs above the dense crossover.
//
// It never materializes the dense B⁻¹A tableau. It keeps the constraint
// matrix in CSC form (sparse.go), represents B⁻¹ as a sparse LU
// factorization plus product-form eta updates (lu.go), prices with a BTRAN
// solve per iteration (partial pricing above a size threshold), and hands
// the simplex the FTRAN image of the entering column. Per pivot the work is
// O(nnz) instead of O(m·nTotal), which is what makes the national-scale
// gridgen tier tractable (BenchmarkReports/revised/RevisedNationalGrid).
//
// Determinism contract vs the dense oracle (DESIGN.md §15): both kernels
// run under the pivot rules of simplex.go, so they walk equivalent vertex
// paths; only the floating-point route to each number
// differs (reduced costs come from y = B⁻ᵀc_B instead of the carried
// tableau row). Sparse arithmetic therefore agrees with the oracle to 1e-9
// but not to the last ulp — refactorization rounds differently than
// accumulated pivoting, the same reason §12 calls warm starts
// tolerance-pure. So the kernel is a function of the problem's size alone:
// problems at or below revisedFinishMaxRows are solved on the dense kernel
// outright (the sparse machinery has nothing to win there), above it the
// solve and its extraction are fully sparse, and agreement with the dense
// kernel is 1e-9-differential, proven by TestRevisedVsDenseDifferential.
// The duals are the y of the final pricing pass (rowDuals), so extraction
// cannot fail.
//
// A warm re-entry (warmstart.go) factors only the warm basis, and on the
// basis's own matrix shares the LU factors the first such solve stored on
// the Basis: they are immutable (lu.go), and each solve keeps its own eta
// file. In the dual phase the pivot row α = e_rᵀB⁻¹A comes from one BTRAN
// and a dot product per movable CSC column, and the reduced costs are
// carried (d −= (d_q/α_q)·α) and re-priced from scratch after every
// refactorization.
package lp

// revisedFinishMaxRows is the dense crossover: at or below this many
// constraint rows MethodAuto solves on the dense kernel (dense is at least
// as fast at these sizes); above it, the sparse kernel runs end to end. A
// package variable so the differential battery can force the sparse path
// on instances of every size.
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
// kernel, which pivots through near-singularity instead of factoring.
const statusNumerical Status = -2

// statusNotDualFeasible is an internal status: the warm basis is neither
// primal nor dual feasible, so neither simplex can start from it and the
// caller falls back to the cold two-phase solve.
const statusNotDualFeasible Status = -3

// revisedKernel is the LU/eta kernel.
type revisedKernel struct {
	*simplex
	sf *standardForm
	lu *luState

	priceCursor int

	// Counter deltas, flushed to the lp.revised.* telemetry by release.
	cFactor, cEta, cRefactor, cFtran, cBtran int64

	cb     []float64 // row space: costs of basic columns
	y      []float64 // row space: pricing duals
	colBuf []float64 // row space scatter buffer, kept all-zero between uses
	d      []float64 // per column: the dual phase's reduced costs, allocated on first use
	alpha  []float64 // per column: the dual phase's pivot row, allocated on first use
}

// newRevised factors s's starting basis, all slack/artificial unit
// columns — never singular — unless warm: refactorAt factors the warm
// basis instead.
func newRevised(s *simplex, sf *standardForm, warm bool) *revisedKernel {
	s.w = make([]float64, s.m)
	k := &revisedKernel{
		simplex: s,
		sf:      sf,
		lu:      newLUState(s.m),
		cb:      make([]float64, s.m),
		y:       make([]float64, s.m),
		colBuf:  make([]float64, s.m),
	}
	if !warm {
		k.refactorNow()
	}
	return k
}

func (k *revisedKernel) release() {
	mRevFactorizations.Add(k.cFactor)
	mRevEtaUpdates.Add(k.cEta)
	mRevRefactorTriggers.Add(k.cRefactor)
	mRevFtranSolves.Add(k.cFtran)
	mRevBtranSolves.Add(k.cBtran)
}

func (k *revisedKernel) refactorNow() bool {
	f := k.factor()
	if f == nil {
		return false
	}
	k.lu.install(f)
	return true
}

// factor factors the current basis, nil when it is numerically singular.
func (k *revisedKernel) factor() *luFactor {
	f := factorBasis(k.sf, k.basis, k.lu.ws)
	if f != nil {
		k.cFactor++
	}
	return f
}

// fresh is false: the kernel re-prices at every pivot.
func (k *revisedKernel) fresh([]float64) bool { return false }

// reprice computes the pricing duals y = B⁻ᵀc_B; price then prices each
// column it scans as a sparse dot against the original matrix.
func (k *revisedKernel) reprice(c []float64) {
	for i, bc := range k.basis {
		k.cb[i] = c[bc]
	}
	k.lu.btranInto(k.y, k.cb)
	k.cBtran++
}

// price selects the entering column over all columns or — above the
// partial pricing threshold and outside Bland's rule — over cyclic blocks
// starting at the pricing cursor, taking the first block with a candidate.
func (k *revisedKernel) price(c []float64, bland bool) (int, float64) {
	nTotal := k.nTotal
	if bland || nTotal < revisedPartialPricingMin {
		return k.priceRange(c, 0, nTotal, bland)
	}
	start := k.priceCursor % nTotal
	for scanned := 0; scanned < nTotal; {
		hi := min(start+revisedPricingBlock, nTotal)
		if j, dir := k.priceRange(c, start, hi, false); j >= 0 {
			k.priceCursor = hi % nTotal
			return j, dir
		}
		scanned += hi - start
		start = hi % nTotal
	}
	return -1, 0
}

// priceRange prices the columns lo..hi-1 that can enter and offers them
// to the entering rule.
func (k *revisedKernel) priceRange(c []float64, lo, hi int, bland bool) (int, float64) {
	e := newPick(bland)
	status, upper := k.status, k.upper
	for j := lo; j < hi; j++ {
		if canEnter(status[j], upper[j]) && e.offer(j, status[j], c[j]-k.priceDot(j)) {
			break
		}
	}
	return e.enter, e.dir
}

// priceDot is yᵀA_j over the sparse column.
func (k *revisedKernel) priceDot(j int) float64 {
	rows, vals := k.sf.a.col(j)
	y := k.y
	s := 0.0
	for i, r := range rows {
		s += y[r] * vals[i]
	}
	return s
}

// column computes w = B⁻¹A_j via the scatter buffer (restored to zero
// before returning).
func (k *revisedKernel) column(j int) {
	rows, vals := k.sf.a.col(j)
	for i, r := range rows {
		k.colBuf[r] = vals[i]
	}
	k.lu.ftranInto(k.w, k.colBuf)
	k.cFtran++
	for _, r := range rows {
		k.colBuf[r] = 0
	}
}

// failUpdate, when non-nil, runs before each eta update of the primal
// simplex and true makes the update report a singular basis. Only tests set
// it, to reach the dense fallback; it is nil in every other solve.
var failUpdate func() bool

// update absorbs the basis change as an eta.
func (k *revisedKernel) update(row, _ int) bool {
	if failUpdate != nil && failUpdate() {
		return false
	}
	_, ok := k.absorb(row)
	return ok
}

// absorb appends the eta of w in row r, refactoring on the update-count
// trigger or when the pivot element is too small to absorb stably. It
// reports whether it refactored, and false if the basis went singular.
func (k *revisedKernel) absorb(r int) (refactored, ok bool) {
	if k.lu.update(r, k.w) {
		k.cEta++
		if !k.lu.needsRefactor() {
			return false, true
		}
	}
	k.cRefactor++
	return true, k.refactorNow()
}

// refactorAt factors the warm basis b (LU instead of the dense
// Gauss-Jordan), sharing b's cached factors on b's own matrix, and
// computes the basic values as x = B⁻¹(b − Σ u_j A_j over the
// nonbasic-at-upper columns).
func (k *revisedKernel) refactorAt(b *Basis) bool {
	copy(k.basis, b.rows)
	var f *luFactor
	if k.ownMatrix(b) {
		f = b.lu.get(k.factor)
	} else {
		f = k.factor()
	}
	if f == nil {
		return false // singular for the perturbed matrix
	}
	k.lu.install(f)
	// Accumulate the at-upper offsets in row space (x still holds b), then
	// one FTRAN. y doubles as the row-space scratch here (pricing
	// overwrites it before first use).
	copy(k.y, k.x)
	for j, st := range k.status {
		if st != atUpper {
			continue
		}
		u := k.upper[j]
		if u == 0 {
			continue
		}
		rows, vals := k.sf.a.col(j)
		for i, r := range rows {
			k.y[r] -= u * vals[i]
		}
	}
	k.lu.ftranInto(k.x, k.y)
	k.cFtran++
	return true
}

// dualPrices prices every column at the current basis from scratch:
// d_j = c_j − yᵀA_j with y = B⁻ᵀc_B, and 0 for basic columns.
func (k *revisedKernel) dualPrices() []float64 {
	if k.d == nil {
		k.d = make([]float64, k.nTotal)
	}
	k.reprice(k.cost)
	d, status, cost := k.d, k.status, k.cost
	for j := range d {
		if status[j] == inBasis {
			d[j] = 0
		} else {
			d[j] = cost[j] - k.priceDot(j)
		}
	}
	return d
}

// pivotRow computes α_j = ρ·A_j over the movable columns, with
// ρ = e_rᵀB⁻¹ from one BTRAN. ρ lives in y, whose pricing duals are spent
// once the dual phase's d is priced; e_r is built in the all-zero scatter
// buffer.
func (k *revisedKernel) pivotRow(r int) []float64 {
	if k.alpha == nil {
		k.alpha = make([]float64, k.nTotal)
	}
	rho := k.y
	k.colBuf[r] = 1
	k.lu.btranInto(rho, k.colBuf)
	k.colBuf[r] = 0
	k.cBtran++
	alpha, upper, a := k.alpha, k.upper, k.sf.a
	for j, st := range k.status {
		if !movable(st, upper[j]) {
			continue
		}
		rows, vals := a.col(j)
		dot := 0.0
		for i, row := range rows {
			dot += rho[row] * vals[i]
		}
		alpha[j] = dot
	}
	return alpha
}

// dualUpdate takes the dual step d −= θ·α with θ = d_q/α_q, which zeroes
// the entering reduced cost and leaves the leaving column's at −θ, then
// absorbs the basis change, re-pricing d from scratch after a
// refactorization.
func (k *revisedKernel) dualUpdate(r, enter, leaveCol int, alpha, d []float64) bool {
	theta := d[enter] / alpha[enter]
	upper := k.upper
	for j, st := range k.status {
		if movable(st, upper[j]) {
			d[j] -= theta * alpha[j]
		}
	}
	d[enter] = 0
	d[leaveCol] = -theta
	refactored, ok := k.absorb(r)
	if refactored && ok {
		k.dualPrices()
	}
	return ok
}

// rowDuals returns y from the last pricing pass. The kernel does not carry
// its prices, so primal re-priced the phase-2 cost by BTRAN at the final
// basis right before it returned Optimal. pivotRow borrows y as scratch,
// but only in the dual phase, which always runs before that primal.
func (k *revisedKernel) rowDuals() []float64 { return k.y }

// reducedCost is c_j − yᵀA_j, the dot product summed first.
func (k *revisedKernel) reducedCost(j int) float64 {
	return k.cost[j] - k.priceDot(j)
}
