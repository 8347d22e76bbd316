// Solver fallback chain: Dantzig-rule solve first, then a restart under
// Bland's rule with an enlarged pivot budget when the first attempt cycles
// out (iteration limit) or dies numerically (singular basis, recovered
// panic). Cancellation and structurally invalid problems are never retried.
package lp

import (
	"errors"
	"fmt"
)

// SolveResilient solves the problem with the fallback chain. The first
// attempt uses opts verbatim; when it exhausts its iteration limit or fails
// with a retryable error, the solve restarts from scratch under Bland's rule
// (cycling-proof) with a doubled pivot budget. Every degradation is recorded
// in Solution.Fallbacks so callers can account for it.
//
// Not retried: cancellation (Canceled / DeadlineExceeded statuses or context
// errors — the caller asked to stop), ErrBadProblem (retrying cannot fix an
// invalid model), and clean Infeasible/Unbounded terminations (they are
// answers, not failures).
func SolveResilient(p *Problem, opts Options) (*Solution, error) {
	sol, err := p.SolveOpts(opts)
	reason, retry := retryable(sol, err)
	if !retry {
		return sol, err
	}

	mBlandRestarts.Inc()
	retryOpts := opts
	retryOpts.ForceBland = true
	// Budget the restart from the problem-size default for the bounded
	// form (m rows, n + 2m columns), not the caller's (possibly exhausted)
	// MaxIter — the point is to outlast the failure.
	m := len(p.rows)
	retryOpts.MaxIter = 2 * (Options{}).maxIter(m, len(p.obj)+2*m)
	sol2, err2 := p.SolveOpts(retryOpts)
	if err2 != nil {
		return nil, p.solveErr("fallback", Optimal, 0,
			fmt.Errorf("bland restart after %s also failed: %w", reason, err2))
	}
	sol2.Fallbacks = append(sol2.Fallbacks, "bland-restart: "+reason)
	mFallbacks.Add(int64(len(sol2.Fallbacks)))
	return sol2, nil
}

// retryable decides whether a first-attempt outcome warrants the Bland
// restart, and names the reason for the degradation record.
func retryable(sol *Solution, err error) (string, bool) {
	if err != nil {
		if errors.Is(err, ErrBadProblem) {
			return "", false
		}
		var se *SolveError
		if errors.As(err, &se) && IsCancellation(se.Status) {
			return "", false
		}
		return err.Error(), true
	}
	if sol.Status == IterationLimit {
		return "iteration limit after " + fmt.Sprint(sol.Iterations) + " pivots", true
	}
	return "", false
}
