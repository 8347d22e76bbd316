package lp

// The bounds-as-rows reference tableau: a textbook two-phase simplex that
// lowers every finite upper bound onto an explicit ≤ row and recovers all
// duals, bound duals included, from one Bᵀy = c_B solve. No production
// solve uses it. It is the independent oracle that the agreement tests
// (TestMethodsAgree, TestBoundedDualsAgree, FuzzSolveAgreement) hold the
// bounded tableau to: its standard form, basis size and pivot sequence all
// differ from the production solvers, so a shared bug is unlikely to hide.

import "math"

// solveRows solves p on the reference tableau. It validates p like
// Problem.SolveOpts and honors Options' iteration, Bland, context and hook
// settings, but records no telemetry.
func solveRows(p *Problem, opts Options) (*Solution, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t, err := newTableau(p, opts)
	if err != nil {
		return nil, err
	}
	t.g = newGuard(opts)
	return t.run()
}

// tableau is the working state of the two-phase simplex.
type tableau struct {
	p    *Problem
	opts Options
	tol  float64

	n      int // structural variables
	mUser  int // user constraint rows
	mBound int // bound rows
	m      int // total rows = mUser + mBound

	// a is the m×(n+extra) dense constraint matrix in standard form with
	// slack/surplus/artificial columns appended; b is the (nonnegative)
	// RHS. rowSense records the original sense after RHS normalization.
	a [][]float64
	b []float64

	nTotal  int   // columns in a
	basis   []int // basic variable (column) per row
	artCols []int // artificial column index per row, or -1
	// slackCols[i] is the slack/surplus column of row i, or -1 for EQ rows.
	slackCols []int

	cost  []float64 // phase-2 cost per column (0 for slack/art)
	iters int
	max   int
	g     *guard
}

func newTableau(p *Problem, opts Options) (*tableau, error) {
	t := &tableau{p: p, opts: opts, tol: tol}
	t.n = len(p.obj)
	t.mUser = len(p.rows)
	for _, u := range p.upper {
		if !math.IsInf(u, 1) {
			t.mBound++
		}
	}
	t.m = t.mUser + t.mBound

	// Column layout: [structural | one slack/surplus per non-EQ row |
	// one artificial per row that needs one]. We allocate generously and
	// trim by tracking nTotal.
	maxCols := t.n + t.m /*slack*/ + t.m /*artificial*/
	t.a = make([][]float64, t.m)
	rowsBacking := make([]float64, t.m*maxCols)
	for i := range t.a {
		t.a[i] = rowsBacking[i*maxCols : (i+1)*maxCols]
	}
	t.b = make([]float64, t.m)
	t.basis = make([]int, t.m)
	t.artCols = make([]int, t.m)
	t.slackCols = make([]int, t.m)

	// Fill user rows. Normalize so b ≥ 0 (flip sense when negating).
	senses := make([]Sense, t.m)
	for i, row := range p.rows {
		s := row.Sense
		rhs := row.RHS
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
		t.b[i] = rhs
		senses[i] = s
	}
	// Bound rows: x_j ≤ u_j.
	bi := t.mUser
	for j, u := range p.upper {
		if math.IsInf(u, 1) {
			continue
		}
		t.a[bi][j] = 1
		t.b[bi] = u
		senses[bi] = LE
		bi++
	}

	// Slack / surplus columns.
	col := t.n
	for i := 0; i < t.m; i++ {
		switch senses[i] {
		case LE:
			t.a[i][col] = 1
			t.slackCols[i] = col
			col++
		case GE:
			t.a[i][col] = -1
			t.slackCols[i] = col
			col++
		default:
			t.slackCols[i] = -1
		}
	}
	// Artificial columns: needed for GE and EQ rows; LE rows start with
	// their slack basic (b ≥ 0 already).
	for i := 0; i < t.m; i++ {
		switch senses[i] {
		case LE:
			t.basis[i] = t.slackCols[i]
			t.artCols[i] = -1
		default:
			t.a[i][col] = 1
			t.basis[i] = col
			t.artCols[i] = col
			col++
		}
	}
	t.nTotal = col

	// Phase-2 costs.
	t.cost = make([]float64, t.nTotal)
	copy(t.cost, p.obj)

	t.max = opts.maxIter(t.m, t.nTotal)
	return t, nil
}

// run executes phase 1 (if artificials exist) and phase 2, then extracts the
// solution and dual values.
func (t *tableau) run() (*Solution, error) {
	hasArt := false
	for _, c := range t.artCols {
		if c >= 0 {
			hasArt = true
			break
		}
	}
	if hasArt {
		// Phase-1 cost: sum of artificials.
		c1 := make([]float64, t.nTotal)
		for _, c := range t.artCols {
			if c >= 0 {
				c1[c] = 1
			}
		}
		st := t.simplex(c1, true)
		if st != Optimal {
			return t.stopped("lp.phase1", st)
		}
		// Feasible iff artificial sum is ~0.
		sum := 0.0
		for i, bc := range t.basis {
			if c1[bc] != 0 {
				sum += t.b[i]
			}
		}
		if sum > t.feasTol() {
			return &Solution{Status: Infeasible, Iterations: t.iters}, nil
		}
		t.evictArtificials()
	}
	st := t.simplex(t.cost, false)
	if st != Optimal {
		return t.stopped("lp.phase2", st)
	}
	return t.extract()
}

// stopped converts a non-optimal simplex exit status into the caller-facing
// (Solution, error) pair: degradation statuses travel on the Solution,
// hook-abort errors travel as a *SolveError.
func (t *tableau) stopped(stage string, st Status) (*Solution, error) {
	if st == statusAborted {
		return nil, t.p.solveErr(stage, Optimal, t.iters, t.g.err)
	}
	return &Solution{Status: st, Iterations: t.iters}, nil
}

// feasTol is the (scale-aware) phase-1 feasibility threshold.
func (t *tableau) feasTol() float64 {
	scale := 1.0
	for _, v := range t.b {
		if v > scale {
			scale = v
		}
	}
	return t.tol * scale * float64(t.m+1) * 100
}

// evictArtificials pivots basic artificial variables out of the basis (or
// leaves them at zero in degenerate redundant rows, where every structural
// coefficient is zero).
func (t *tableau) evictArtificials() {
	for i := 0; i < t.m; i++ {
		bc := t.basis[i]
		if t.artCols[i] != bc && !t.isArtificial(bc) {
			continue
		}
		if !t.isArtificial(bc) {
			continue
		}
		// Find any non-artificial column with a nonzero entry in row i.
		pivotCol := -1
		for j := 0; j < t.nTotal; j++ {
			if t.isArtificial(j) {
				continue
			}
			if math.Abs(t.a[i][j]) > t.tol {
				pivotCol = j
				break
			}
		}
		if pivotCol >= 0 {
			t.pivot(i, pivotCol)
		}
		// Otherwise the row is redundant; the artificial stays basic at
		// value ~0 and never re-enters because phase 2 ignores it (see
		// simplex: artificial columns are barred from entering).
	}
}

func (t *tableau) isArtificial(col int) bool {
	for _, c := range t.artCols {
		if c == col {
			return true
		}
	}
	return false
}

// simplex runs primal simplex pivots minimizing cᵀx over the current
// tableau. When phase1 is false, artificial columns may not enter the basis.
func (t *tableau) simplex(c []float64, phase1 bool) Status {
	// Reduced costs are computed on demand: r_j = c_j − c_Bᵀ(B⁻¹A)_j,
	// where the tableau columns already store B⁻¹A.
	bland := false
	noProgress := 0
	lastObj := math.Inf(1)
	for t.iters < t.max {
		if t.g.due(t.iters) {
			if st, stop := t.g.at("lp.pivot"); stop {
				return st
			}
		}
		// Current basic costs.
		obj := 0.0
		for i, bc := range t.basis {
			obj += c[bc] * t.b[i]
		}
		if obj < lastObj-t.tol {
			lastObj = obj
			noProgress = 0
		} else {
			noProgress++
			if noProgress > 2*(t.m+10) {
				if !bland {
					mBlandSwitch.Inc()
				}
				bland = true // suspected cycling: switch to Bland's rule
			}
		}

		enter := -1
		best := -t.tol
		for j := 0; j < t.nTotal; j++ {
			if !phase1 && t.isArtificial(j) {
				continue
			}
			r := c[j]
			for i, bc := range t.basis {
				if cb := c[bc]; cb != 0 {
					r -= cb * t.a[i][j]
				}
			}
			if r < best {
				if bland {
					enter = j
					break
				}
				best = r
				enter = j
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij > t.tol {
				ratio := t.b[i] / aij
				if ratio < bestRatio-t.tol ||
					(ratio < bestRatio+t.tol && (leave < 0 || t.basis[i] < t.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
		t.iters++
	}
	return IterationLimit
}

// pivot performs a Gauss-Jordan pivot making column `col` basic in row `row`.
func (t *tableau) pivot(row, col int) {
	piv := t.a[row][col]
	inv := 1 / piv
	ar := t.a[row]
	for j := 0; j < t.nTotal; j++ {
		ar[j] *= inv
	}
	t.b[row] *= inv
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
		t.b[i] -= f * t.b[row]
		if math.Abs(t.b[i]) < 1e-13 {
			t.b[i] = 0
		}
	}
	t.basis[row] = col
}

// extract reads the primal solution off the tableau and recovers duals by
// solving Bᵀy = c_B against the *original* standard-form matrix.
func (t *tableau) extract() (*Solution, error) {
	sol := &Solution{
		Status:     Optimal,
		X:          make([]float64, t.n),
		Duals:      make([]float64, t.mUser),
		BoundDuals: make([]float64, t.n),
		Iterations: t.iters,
	}
	for i, bc := range t.basis {
		if bc < t.n {
			sol.X[bc] = t.b[i]
		}
	}
	for j := range sol.X {
		if math.Abs(sol.X[j]) < 1e-12 {
			sol.X[j] = 0
		}
	}
	obj := 0.0
	for j, x := range sol.X {
		obj += t.p.obj[j] * x
	}
	sol.Objective = obj

	if st, stop := t.g.at("lp.extract"); stop {
		if st == statusAborted {
			return nil, t.p.solveErr("lp.extract", Optimal, t.iters, t.g.err)
		}
		return &Solution{Status: st, Iterations: t.iters}, nil
	}
	y, err := t.duals()
	if err != nil {
		// Attribute the failure: multi-actor runs solve hundreds of
		// near-identical LPs, and an unlabeled singular basis is
		// undiagnosable.
		return nil, t.p.solveErr("dual-extraction", Optimal, t.iters, err)
	}
	// Map standard-form duals back to user rows, undoing RHS normalization
	// (rows whose RHS was negated have negated duals).
	for i, row := range t.p.rows {
		d := y[i]
		if row.RHS < 0 {
			d = -d
		}
		sol.Duals[i] = d
	}
	bi := t.mUser
	for j, u := range t.p.upper {
		if math.IsInf(u, 1) {
			continue
		}
		sol.BoundDuals[j] = y[bi]
		bi++
	}
	return sol, nil
}

// duals rebuilds the original standard-form matrix (pre-pivoting) and solves
// Bᵀy = c_B with partial-pivot Gaussian elimination.
func (t *tableau) duals() ([]float64, error) {
	m := t.m
	// Rebuild original columns for the basis.
	orig := t.originalMatrix()
	bt := make([][]float64, m) // Bᵀ
	for i := range bt {
		bt[i] = make([]float64, m+1)
	}
	for k, bc := range t.basis { // column k of B is orig column basis[k]
		for i := 0; i < m; i++ {
			bt[k][i] = orig[i][bc] // (Bᵀ)[k][i] = B[i][k]
		}
		cb := 0.0
		if bc < len(t.cost) {
			cb = t.cost[bc]
		}
		bt[k][m] = cb
	}
	y, ok := solveDense(bt)
	if !ok {
		return nil, ErrSingularBasis
	}
	return y, nil
}

// originalMatrix reconstructs the standard-form constraint matrix as it was
// before any pivoting.
func (t *tableau) originalMatrix() [][]float64 {
	m := t.m
	orig := make([][]float64, m)
	backing := make([]float64, m*t.nTotal)
	for i := range orig {
		orig[i] = backing[i*t.nTotal : (i+1)*t.nTotal]
	}
	for i, row := range t.p.rows {
		flip := row.RHS < 0
		for _, co := range row.Coefs {
			v := co.Value
			if flip {
				v = -v
			}
			orig[i][co.Var] += v
		}
	}
	bi := t.mUser
	for j, u := range t.p.upper {
		if math.IsInf(u, 1) {
			continue
		}
		orig[bi][j] = 1
		bi++
	}
	for i := 0; i < m; i++ {
		if sc := t.slackCols[i]; sc >= 0 {
			// Sense after normalization decides the sign; recover it
			// from the stored slack sign convention: we must re-derive.
			orig[i][sc] = t.slackSign(i)
		}
		if ac := t.artCols[i]; ac >= 0 {
			orig[i][ac] = 1
		}
	}
	return orig
}

// slackSign reports +1 for a LE row's slack and −1 for a GE row's surplus,
// using the normalized sense.
func (t *tableau) slackSign(i int) float64 {
	if i >= t.mUser {
		return 1 // bound rows are always ≤
	}
	row := t.p.rows[i]
	s := row.Sense
	if row.RHS < 0 { // normalization flipped the sense
		switch s {
		case LE:
			s = GE
		case GE:
			s = LE
		}
	}
	if s == GE {
		return -1
	}
	return 1
}

// solveDense solves the square augmented system rows[i] = [A | b] in place
// via Gaussian elimination with partial pivoting. Returns the solution and
// whether the matrix was nonsingular.
func solveDense(rows [][]float64) ([]float64, bool) {
	n := len(rows)
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(rows[r][col]) > math.Abs(rows[p][col]) {
				p = r
			}
		}
		if math.Abs(rows[p][col]) < 1e-12 {
			return nil, false
		}
		rows[col], rows[p] = rows[p], rows[col]
		pivRow := rows[col]
		inv := 1 / pivRow[col]
		for j := col; j <= n; j++ {
			pivRow[j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := rows[r][col]
			if f == 0 {
				continue
			}
			for j := col; j <= n; j++ {
				rows[r][j] -= f * pivRow[j]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = rows[i][n]
	}
	return x, true
}
