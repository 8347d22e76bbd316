// Package lp implements a two-phase bounded-variable simplex for small to
// medium linear programs, with dual-value extraction.
//
// It targets the problem sizes that arise in energy-dispatch models
// (hundreds of variables and constraints). One simplex (simplex.go) owns the
// pivot rules; two kernels do its linear algebra, and the problem's size
// picks between them: the dense tableau (bounded.go) at or below 512
// constraint rows, the sparse revised LU/eta kernel (revised.go) above,
// which is what the national gridgen tier needs.
// Both favor numerical robustness and auditability over asymptotic speed:
// pivoting is Dantzig-rule with an automatic switch to Bland's rule to break
// cycling. Every optimum is confirmed by a fresh pricing pass, and its dual
// values come from that pass: the dense kernel reads them off its carried
// reduced-cost row, the sparse kernel from one BTRAN against a fresh LU
// factorization of the final basis.
//
// Problems are stated as
//
//	minimize  cᵀx
//	subject to aᵢᵀx {≤,=,≥} bᵢ   for each constraint i
//	           0 ≤ xⱼ ≤ uⱼ       for each variable j (uⱼ may be +Inf)
//
// Upper bounds stay implicit in the pivot rules: a nonbasic variable rests
// at either bound and a bound-to-bound flip costs no pivot. Each finite bound
// still gets a dual (Solution.BoundDuals, the reduced-cost rents used by the
// marginal-cost profit division in package actors).
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cpsguard/internal/telemetry"
)

// Sense is the direction of a linear constraint.
type Sense int8

const (
	// LE is aᵀx ≤ b.
	LE Sense = iota
	// EQ is aᵀx = b.
	EQ
	// GE is aᵀx ≥ b.
	GE
)

// String returns the conventional symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Sense(%d)", int8(s))
	}
}

// Status describes the outcome of a Solve call.
type Status int8

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies all constraints.
	Infeasible
	// Unbounded means the objective can decrease without limit.
	Unbounded
	// IterationLimit means the pivot limit was exhausted before optimality.
	IterationLimit
	// Canceled means Options.Ctx was canceled mid-solve.
	Canceled
	// DeadlineExceeded means Options.Ctx's deadline expired mid-solve.
	DeadlineExceeded
	// NodeLimit means a branch-and-bound node budget was exhausted before
	// any integer-feasible incumbent was found (MILP only).
	NodeLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	case Canceled:
		return "canceled"
	case DeadlineExceeded:
		return "deadline-exceeded"
	case NodeLimit:
		return "node-limit"
	default:
		return fmt.Sprintf("Status(%d)", int8(s))
	}
}

// ErrBadProblem reports a structurally invalid problem (e.g. a coefficient
// referencing an unknown variable, or a NaN entry).
var ErrBadProblem = errors.New("lp: invalid problem")

// Coef is one nonzero entry of a constraint row.
type Coef struct {
	Var   int     // variable index
	Value float64 // coefficient
}

// Constraint is one linear constraint in a Problem.
type Constraint struct {
	Coefs []Coef
	Sense Sense
	RHS   float64
	// Name is an optional label used in error messages and debugging dumps.
	Name string
}

// Problem is a linear program under construction. The zero value is an empty
// minimization problem; add variables first, then constraints.
type Problem struct {
	name  string    // problem label for error attribution
	obj   []float64 // cost per variable
	upper []float64 // upper bound per variable (may be +Inf)
	names []string  // variable names (debugging)
	rows  []Constraint
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// SetName labels the problem; the label is carried on every *SolveError so
// failures in multi-actor runs are attributable to a specific solve.
func (p *Problem) SetName(name string) { p.name = name }

// Name returns the label set by SetName (empty by default).
func (p *Problem) Name() string { return p.name }

// AddVariable appends a variable with the given objective cost and upper
// bound (use math.Inf(1) for none) and returns its index. Lower bounds are
// always zero; shift the variable at modeling time if a different lower
// bound is needed.
func (p *Problem) AddVariable(name string, cost, upper float64) int {
	p.obj = append(p.obj, cost)
	p.upper = append(p.upper, upper)
	p.names = append(p.names, name)
	return len(p.obj) - 1
}

// SetCost replaces the objective coefficient of variable v.
func (p *Problem) SetCost(v int, cost float64) { p.obj[v] = cost }

// SetUpper replaces the upper bound of variable v.
func (p *Problem) SetUpper(v int, upper float64) { p.upper[v] = upper }

// Variant returns a problem that shares p's constraint rows and owns copies
// of its costs and upper bounds, so SetCost and SetUpper re-parameterize it
// without touching p or rebuilding the rows. Many variants of one problem
// may be built and solved concurrently. The shared rows must not change
// while a variant is in use; AddVariable and AddConstraint on a variant
// leave p untouched.
func (p *Problem) Variant() *Problem {
	v := *p
	v.obj = append([]float64(nil), p.obj...)
	v.upper = append([]float64(nil), p.upper...)
	v.names = p.names[:len(p.names):len(p.names)]
	v.rows = p.rows[:len(p.rows):len(p.rows)]
	return &v
}

// NumVariables reports the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// NumConstraints reports the number of constraint rows added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// AddConstraint appends a constraint row and returns its index. The index
// identifies the row's dual value in Solution.Duals.
func (p *Problem) AddConstraint(c Constraint) int {
	p.rows = append(p.rows, c)
	return len(p.rows) - 1
}

// VariableName returns the name given to variable v at AddVariable time.
func (p *Problem) VariableName(v int) string { return p.names[v] }

// Cost returns the objective coefficient of variable v.
func (p *Problem) Cost(v int) float64 { return p.obj[v] }

// Upper returns the upper bound of variable v (possibly +Inf).
func (p *Problem) Upper(v int) float64 { return p.upper[v] }

// ConstraintAt returns a copy of constraint row i. The coefficient slice is
// copied so callers cannot alias the problem's internals.
func (p *Problem) ConstraintAt(i int) Constraint {
	c := p.rows[i]
	c.Coefs = append([]Coef(nil), c.Coefs...)
	return c
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	// X holds the primal values, indexed by variable.
	X []float64
	// Duals holds one dual value per constraint row (by AddConstraint
	// index): relaxing b_i by +δ changes the optimal objective by
	// approximately Duals[i]·δ. So a binding ≤ row has a dual ≤ 0 (more
	// room can only lower the minimum) and a binding ≥ row one ≥ 0.
	Duals []float64
	// BoundDuals holds the dual of each variable's upper-bound row
	// (zero when the bound is infinite or slack). Relaxing the bound u_j
	// by +δ changes the objective by approximately BoundDuals[j]·δ.
	BoundDuals []float64
	// Iterations is the total number of simplex pivots performed.
	Iterations int
	// WarmStarted reports that this solution was produced by the warm path
	// (phase 2 re-entered from Options.WarmStart). False when no basis was
	// supplied or the basis was rejected and the solver fell back to cold.
	WarmStarted bool

	// basis is the optimal basis; see Basis().
	basis *Basis
}

// Options tunes the solver. The zero value selects defaults.
type Options struct {
	// MaxIter caps total pivots (default 50·(m+n), at least 10_000).
	MaxIter int
	// Method selects the simplex kernel (default MethodAuto: dense at or
	// below 512 constraint rows, sparse above).
	Method Method
	// Ctx, when non-nil, is checked on entry and every CheckEvery pivots;
	// cancellation stops the solve with status Canceled or
	// DeadlineExceeded (an already-expired context returns before any
	// pivoting).
	Ctx context.Context
	// CheckEvery is the pivot interval between Ctx/Hook checkpoints
	// (default 64).
	CheckEvery int
	// Hook is an optional fault-injection / instrumentation checkpoint;
	// see the Hook type.
	Hook Hook
	// WarmStart, when non-nil, re-enters phase 2 from the supplied basis
	// (typically Solution.Basis() of a structurally identical problem),
	// skipping phase 1. A basis that is stale — wrong dimensions, singular,
	// or one the re-entry cannot repair — is rejected and the solve falls
	// back to the cold two-phase path, so results are never affected, only
	// cost. See warmstart.go.
	WarmStart *Basis
}

func (o Options) maxIter(m, n int) int {
	if o.MaxIter > 0 {
		return o.MaxIter
	}
	it := 50 * (m + n)
	if it < 10000 {
		it = 10000
	}
	return it
}

func (o Options) checkEvery() int {
	if o.CheckEvery > 0 {
		return o.CheckEvery
	}
	return 64
}

// Solve solves the problem with default options.
func (p *Problem) Solve() (*Solution, error) { return p.SolveOpts(Options{}) }

// SolveOpts solves the problem with explicit options. Panics inside the
// pivot loops are recovered and returned as a *SolveError; an expired
// Options.Ctx returns a Canceled/DeadlineExceeded solution without pivoting.
func (p *Problem) SolveOpts(opts Options) (sol *Solution, err error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	sp, _ := telemetry.Default().StartSpanCtx(opts.Ctx, "lp.solve", p.name)
	defer func() {
		recordSolve(sp, sol, err)
		if solveObserver != nil && err == nil {
			solveObserver(p, sol)
		}
	}()
	g := newGuard(opts)
	if st, stop := g.at("lp.enter"); stop {
		if st == statusAborted {
			return nil, p.solveErr("lp.enter", Optimal, 0, g.err)
		}
		return &Solution{Status: st}, nil
	}
	defer func() {
		if r := recover(); r != nil {
			sol, err = nil, p.solveErr("pivot-loop", Optimal, 0, fmt.Errorf("recovered panic: %v", r))
		}
	}()
	return solve(p, opts, g)
}

// solveObserver, when non-nil, sees every solve SolveOpts returns without
// error. Only tests set it (export_test.go certifies each Optimal result);
// it is nil in every other solve.
var solveObserver func(p *Problem, sol *Solution)

// solveErr builds the structured error for a failed solve of p.
func (p *Problem) solveErr(stage string, st Status, iters int, cause error) error {
	return &SolveError{Problem: p.name, Stage: stage, Status: st, Iterations: iters, Err: cause}
}

func (p *Problem) validate() error {
	n := len(p.obj)
	for j, c := range p.obj {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: objective coefficient of %q is %v", ErrBadProblem, p.names[j], c)
		}
	}
	for j, u := range p.upper {
		if math.IsNaN(u) || u < 0 {
			return fmt.Errorf("%w: upper bound of %q is %v", ErrBadProblem, p.names[j], u)
		}
	}
	for i, row := range p.rows {
		if math.IsNaN(row.RHS) || math.IsInf(row.RHS, 0) {
			return fmt.Errorf("%w: RHS of row %d (%s) is %v", ErrBadProblem, i, row.Name, row.RHS)
		}
		for _, co := range row.Coefs {
			if co.Var < 0 || co.Var >= n {
				return fmt.Errorf("%w: row %d (%s) references variable %d of %d", ErrBadProblem, i, row.Name, co.Var, n)
			}
			if math.IsNaN(co.Value) || math.IsInf(co.Value, 0) {
				return fmt.Errorf("%w: row %d (%s) has coefficient %v", ErrBadProblem, i, row.Name, co.Value)
			}
		}
	}
	return nil
}
