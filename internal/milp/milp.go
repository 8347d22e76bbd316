// Package milp solves small mixed-integer linear programs with binary
// variables by best-first branch and bound over the lp package's simplex.
//
// The paper solves both the strategic adversary's target selection (Eq. 8)
// and the defenders' investment problems (Eqs. 12 and 16) "using MILP"; this
// package is the generic engine. The adversary and defense packages also
// ship specialized combinatorial solvers that exploit their problems'
// closed-form structure — this generic solver is their correctness oracle
// in tests. No production binary imports it (make vet checks this).
package milp

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"

	"cpsguard/internal/lp"
	"cpsguard/internal/telemetry"
)

// Problem is a linear program plus a set of variables restricted to {0,1}.
type Problem struct {
	// LP is the relaxation. Binary variables must have upper bound ≤ 1.
	LP *lp.Problem
	// Binary lists the variable indices restricted to {0,1}.
	Binary []int
}

// intTol is the integrality tolerance: a binary within it of 0 or 1 counts
// as integral.
const intTol = 1e-6

// Options tunes the search.
type Options struct {
	// MaxNodes caps explored branch-and-bound nodes (default 200_000).
	MaxNodes int
	// Ctx, when non-nil, is checked before the root solve and every
	// CheckEvery nodes; cancellation stops the search with status
	// Canceled or DeadlineExceeded, carrying the best incumbent found so
	// far. It is also forwarded to the relaxation solves.
	Ctx context.Context
	// CheckEvery is the node interval between Ctx/Hook checkpoints
	// (default 16).
	CheckEvery int
	// Hook is an optional fault-injection checkpoint invoked at site
	// "milp.node"; semantics match lp.Hook.
	Hook lp.Hook
}

func (o Options) maxNodes() int {
	if o.MaxNodes > 0 {
		return o.MaxNodes
	}
	return 200_000
}

func (o Options) checkEvery() int {
	if o.CheckEvery > 0 {
		return o.CheckEvery
	}
	return 16
}

// Solution is an optimal (or best-found) integer solution. A cancellation
// status (lp.Canceled / lp.DeadlineExceeded) keeps a partial result: the
// X/Objective fields carry the best incumbent found so far when one exists,
// with Proven=false. Best-first search proves the first incumbent it finds,
// so a node limit either returns a proven optimum or, before any
// incumbent, lp.NodeLimit with ErrNoIncumbent.
type Solution struct {
	Status    lp.Status
	Objective float64
	X         []float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
	// Proven reports whether optimality was proven (false only when a
	// cancellation stopped the search with an incumbent in hand).
	Proven bool
}

// ErrNoIncumbent is returned when the node limit is hit before any integer
// feasible solution was found. The accompanying Solution is non-nil and
// carries Status lp.NodeLimit and the node count.
var ErrNoIncumbent = errors.New("milp: node limit reached with no incumbent")

// validate rejects structurally invalid MILP ingestion before it can poison
// the branch-and-bound: a nil relaxation, binary indices referencing unknown
// variables, or binary variables whose bounds leave {0,1} unreachable. All
// failures wrap lp.ErrBadProblem.
func validate(p Problem) error {
	if p.LP == nil {
		return fmt.Errorf("%w: milp: nil LP relaxation", lp.ErrBadProblem)
	}
	n := p.LP.NumVariables()
	for _, v := range p.Binary {
		if v < 0 || v >= n {
			return fmt.Errorf("%w: milp: binary variable %d of %d", lp.ErrBadProblem, v, n)
		}
		if u := p.LP.Upper(v); math.IsNaN(u) || u > 1 {
			return fmt.Errorf("%w: milp: binary variable %d (%s) has upper bound %v > 1",
				lp.ErrBadProblem, v, p.LP.VariableName(v), u)
		}
	}
	return nil
}

type node struct {
	bound float64 // LP relaxation objective (lower bound for minimization)
	fixed map[int]float64
}

type nodePQ []*node

func (q nodePQ) Len() int           { return len(q) }
func (q nodePQ) Less(i, j int) bool { return q[i].bound < q[j].bound }
func (q nodePQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *nodePQ) Push(x any)        { *q = append(*q, x.(*node)) }
func (q *nodePQ) Pop() any          { old := *q; n := old[len(old)-1]; *q = old[:len(old)-1]; return n }
func (q nodePQ) Peek() *node        { return q[0] }

// Solve minimizes the problem's objective over the mixed-binary domain.
// Cancellation (via Options.Ctx) aborts between nodes, returning the best
// incumbent found so far under a cancellation status; an already-expired
// context returns before the root relaxation is solved.
func Solve(p Problem, opts Options) (sol *Solution, err error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	sp, _ := telemetry.Default().StartSpanCtx(opts.Ctx, "milp.solve", p.LP.Name())
	defer func() { recordSolve(sp, sol, err) }()
	// Relaxation solves parent under this MILP span in the trace tree.
	lpOpts := lp.Options{Ctx: telemetry.ContextWithSpan(opts.Ctx, sp)}

	// partial assembles the degraded-termination solution around the best
	// incumbent found so far (if any).
	partial := func(st lp.Status, best *Solution, nodes int) *Solution {
		if best == nil {
			return &Solution{Status: st, Nodes: nodes}
		}
		out := *best
		out.Status = st
		out.Nodes = nodes
		out.Proven = false
		return &out
	}

	// checkpoint consults Ctx and Hook; a non-nil Status means stop.
	name := p.LP.Name()
	checkpoint := func(nodes int, best *Solution) (*Solution, error) {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return partial(cancelStatus(err), best, nodes), nil
			}
		}
		if opts.Hook != nil {
			if err := opts.Hook("milp.node"); err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return partial(cancelStatus(err), best, nodes), nil
				}
				return nil, &lp.SolveError{Problem: name, Stage: "milp.node",
					Status: lp.Optimal, Iterations: nodes, Err: err}
			}
		}
		return nil, nil
	}
	if sol, err := checkpoint(0, nil); sol != nil || err != nil {
		return sol, err
	}

	solveRelax := func(fixed map[int]float64) (*lp.Solution, error) {
		// Fix variables by equality rows appended to a scratch copy.
		scratch := cloneProblem(p.LP)
		for v, val := range fixed {
			scratch.AddConstraint(lp.Constraint{
				Coefs: []lp.Coef{{Var: v, Value: 1}},
				Sense: lp.EQ, RHS: val,
				Name: fmt.Sprintf("fix:%d", v),
			})
		}
		return scratch.SolveOpts(lpOpts)
	}

	root := &node{fixed: map[int]float64{}}
	rootSol, err := solveRelax(root.fixed)
	if err != nil {
		return nil, err
	}
	switch rootSol.Status {
	case lp.Infeasible:
		return &Solution{Status: lp.Infeasible, Nodes: 1}, nil
	case lp.Unbounded:
		return &Solution{Status: lp.Unbounded, Nodes: 1}, nil
	case lp.IterationLimit:
		return &Solution{Status: lp.IterationLimit, Nodes: 1}, nil
	case lp.Canceled, lp.DeadlineExceeded:
		return &Solution{Status: rootSol.Status, Nodes: 1}, nil
	}
	root.bound = rootSol.Objective

	pq := nodePQ{root}
	heap.Init(&pq)

	var best *Solution
	nodes := 0
	relaxCache := map[*node]*lp.Solution{root: rootSol}

	for pq.Len() > 0 && nodes < opts.maxNodes() {
		if nodes%opts.checkEvery() == 0 {
			if sol, err := checkpoint(nodes, best); sol != nil || err != nil {
				return sol, err
			}
		}
		n := heap.Pop(&pq).(*node)
		nodes++
		if best != nil && n.bound >= best.Objective-1e-12 {
			mPruned.Inc()
			continue // pruned by incumbent
		}
		sol := relaxCache[n]
		delete(relaxCache, n)
		if sol == nil {
			sol, err = solveRelax(n.fixed)
			if err != nil {
				return nil, err
			}
			if lp.IsCancellation(sol.Status) {
				return partial(sol.Status, best, nodes), nil
			}
			if sol.Status != lp.Optimal {
				continue
			}
			if best != nil && sol.Objective >= best.Objective-1e-12 {
				mPruned.Inc()
				continue
			}
		}
		// Find the most fractional binary variable.
		branchVar := -1
		worst := intTol
		for _, v := range p.Binary {
			frac := math.Abs(sol.X[v] - math.Round(sol.X[v]))
			if frac > worst {
				worst = frac
				branchVar = v
			}
		}
		if branchVar < 0 {
			// Integer feasible: candidate incumbent.
			if best == nil || sol.Objective < best.Objective {
				mIncumbents.Inc()
				x := append([]float64(nil), sol.X...)
				for _, v := range p.Binary {
					x[v] = math.Round(x[v])
				}
				best = &Solution{Status: lp.Optimal, Objective: sol.Objective, X: x}
			}
			continue
		}
		for _, val := range [2]float64{0, 1} {
			child := &node{fixed: make(map[int]float64, len(n.fixed)+1)}
			for k, v := range n.fixed {
				child.fixed[k] = v
			}
			child.fixed[branchVar] = val
			cs, err := solveRelax(child.fixed)
			if err != nil {
				return nil, err
			}
			if lp.IsCancellation(cs.Status) {
				return partial(cs.Status, best, nodes), nil
			}
			if cs.Status != lp.Optimal {
				continue
			}
			if best != nil && cs.Objective >= best.Objective-1e-12 {
				mPruned.Inc()
				continue
			}
			child.bound = cs.Objective
			relaxCache[child] = cs
			heap.Push(&pq, child)
		}
	}

	if best == nil {
		if nodes >= opts.maxNodes() {
			// Degraded, not fatal: callers get the node count and a
			// NodeLimit status alongside the sentinel error.
			return &Solution{Status: lp.NodeLimit, Nodes: nodes}, ErrNoIncumbent
		}
		return &Solution{Status: lp.Infeasible, Nodes: nodes}, nil
	}
	best.Nodes = nodes
	best.Proven = pq.Len() == 0 || pq.Peek().bound >= best.Objective-1e-12
	return best, nil
}

// cancelStatus maps a context error to the matching lp cancellation status.
func cancelStatus(err error) lp.Status {
	if errors.Is(err, context.DeadlineExceeded) {
		return lp.DeadlineExceeded
	}
	return lp.Canceled
}

// cloneProblem deep-copies an lp.Problem through its public API.
func cloneProblem(src *lp.Problem) *lp.Problem {
	dst := lp.NewProblem()
	for v := 0; v < src.NumVariables(); v++ {
		dst.AddVariable(src.VariableName(v), src.Cost(v), src.Upper(v))
	}
	for i := 0; i < src.NumConstraints(); i++ {
		dst.AddConstraint(src.ConstraintAt(i))
	}
	return dst
}
