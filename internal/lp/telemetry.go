// Telemetry instruments for the simplex layer. Counters are registered once
// at init and updated with single atomic adds at solve exit, so the pivot
// loops themselves stay untouched; only cycling-rule switches are counted
// in-loop (they fire at most once per simplex call).
package lp

import (
	"strings"

	"cpsguard/internal/telemetry"
)

var (
	mSolves      = telemetry.NewCounter("lp.solves")
	mErrors      = telemetry.NewCounter("lp.errors")
	mPivots      = telemetry.NewCounter("lp.pivots")
	mPhase1      = telemetry.NewCounter("lp.phase1_solves")
	mBlandSwitch = telemetry.NewCounter("lp.bland_switches")
	mPivotsHist  = telemetry.NewHistogram("lp.pivots_per_solve", telemetry.WorkEdges)

	// Warm-start attribution: attempts = solves entered with a basis,
	// solves = attempts that finished on the warm path, fallbacks =
	// attempts rejected into the cold two-phase path. warm/cold pivot
	// totals split lp.pivots by which path performed them (wasted pivots
	// from abandoned warm attempts are booked under warm_pivots).
	mWarmAttempts  = telemetry.NewCounter("lp.warm_attempts")
	mWarmSolves    = telemetry.NewCounter("lp.warm_solves")
	mWarmFallbacks = telemetry.NewCounter("lp.warm_fallbacks")
	mWarmPivots    = telemetry.NewCounter("lp.warm_pivots")
	mColdPivots    = telemetry.NewCounter("lp.cold_pivots")

	// Sparse-kernel attribution: solves the size rule sent to the sparse
	// revised kernel (above the dense crossover), the factorization/eta/solve
	// work they performed, and dense fallbacks (a numerical failure
	// mid-sparse-solve handed to a cold dense solve).
	mRevSolves           = telemetry.NewCounter("lp.revised.solves")
	mRevFactorizations   = telemetry.NewCounter("lp.revised.factorizations")
	mRevEtaUpdates       = telemetry.NewCounter("lp.revised.eta_updates")
	mRevRefactorTriggers = telemetry.NewCounter("lp.revised.refactor_triggers")
	mRevFtranSolves      = telemetry.NewCounter("lp.revised.ftran_solves")
	mRevBtranSolves      = telemetry.NewCounter("lp.revised.btran_solves")
	mRevDenseFallbacks   = telemetry.NewCounter("lp.revised.dense_fallbacks")

	mStatus = func() map[Status]*telemetry.Counter {
		out := map[Status]*telemetry.Counter{}
		for _, st := range []Status{Optimal, Infeasible, Unbounded, IterationLimit,
			Canceled, DeadlineExceeded, NodeLimit} {
			// Status.String spells multi-word statuses with hyphens
			// ("iteration-limit"); metric names stay in the [a-z0-9_.]
			// charset so the Prometheus mangling is injective.
			name := strings.ReplaceAll(st.String(), "-", "_")
			out[st] = telemetry.NewCounter("lp.status." + name)
		}
		return out
	}()
)

// recordSolve books one SolveOpts outcome: solve/error/status counters, the
// pivot total and per-solve histogram, and the span (when tracing).
func recordSolve(sp *telemetry.Span, sol *Solution, err error) {
	mSolves.Inc()
	if err != nil {
		mErrors.Inc()
		sp.AddDegradations("error: " + err.Error())
		sp.End()
		return
	}
	if sol != nil {
		mStatus[sol.Status].Inc()
		mPivots.Add(int64(sol.Iterations))
		mPivotsHist.Observe(int64(sol.Iterations))
		if sol.WarmStarted {
			mWarmPivots.Add(int64(sol.Iterations))
		} else {
			mColdPivots.Add(int64(sol.Iterations))
		}
		sp.SetWork(int64(sol.Iterations))
	}
	sp.End()
}
