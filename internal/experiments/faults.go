// Trial-fault tolerance for the Monte-Carlo experiment runners: failed
// trials are counted, logged, and excluded from aggregates instead of
// aborting a whole figure, and an experiment only fails when the failure
// rate exceeds the configured threshold. Cancellation is never absorbed —
// a canceled context always aborts the experiment with the context error.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cpsguard/internal/checkpoint"
	"cpsguard/internal/obs"
	"cpsguard/internal/parallel"
	"cpsguard/internal/stats"
	"cpsguard/internal/telemetry"
)

// FaultPolicy governs how experiment runners treat per-trial failures.
// The zero value is strict: any trial failure fails the experiment.
type FaultPolicy struct {
	// MaxFailureRate is the tolerated fraction of failed trials per point
	// in [0,1). With the default 0, a single trial failure aborts the
	// experiment (the pre-resilience behaviour).
	MaxFailureRate float64
	// Hook, when non-nil, is consulted at site "experiments.trial" before
	// each trial; a non-nil return fails that trial without running it.
	// Fault-injection tests arm this to simulate flaky trials.
	Hook func(site string) error
	// Log, when non-nil, collects every trial failure for post-run
	// inspection.
	Log *FaultLog
}

// TrialError records one failed trial.
type TrialError struct {
	// Point labels the experiment point ("fig5 n=4 σ=0.2").
	Point string
	// Trial is the trial index within the point.
	Trial int
	// Err is the failure.
	Err error
}

// Error implements error.
func (e *TrialError) Error() string {
	return fmt.Sprintf("%s trial %d: %v", e.Point, e.Trial, e.Err)
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *TrialError) Unwrap() error { return e.Err }

// FaultLog accumulates trial failures across an experiment run. Safe for
// concurrent use.
type FaultLog struct {
	mu       sync.Mutex
	failures []TrialError
	trials   int // total trials attempted
}

// record is called once per trial (failed or not) so rates are computable.
func (l *FaultLog) record(point string, trial int, err error) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.trials++
	if err != nil {
		l.failures = append(l.failures, TrialError{Point: point, Trial: trial, Err: err})
	}
}

// Failures returns a copy of the logged trial failures.
func (l *FaultLog) Failures() []TrialError {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]TrialError(nil), l.failures...)
}

// Trials returns the total number of trials attempted.
func (l *FaultLog) Trials() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.trials
}

// FailureRate returns len(Failures)/Trials (0 when no trials ran).
func (l *FaultLog) FailureRate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.trials == 0 {
		return 0
	}
	return float64(len(l.failures)) / float64(l.trials)
}

// errTrialNotAssigned marks a trial skipped under a shard assignment:
// another shard owns it. It is internal bookkeeping, never surfaced —
// skipped trials are excluded from results, fault accounting, and journals.
var errTrialNotAssigned = errors.New("experiments: trial owned by another shard")

// runTrials runs fn for cfg.trials() trials under the fault policy and
// returns the results of the trials that succeeded (order-preserving within
// survivors). A canceled pool context aborts with the context error;
// otherwise failures are counted against the policy's threshold and the
// call errors only when the per-point failure rate exceeds it or every
// trial failed.
//
// When cfg.Sweep is set, every trial is durable: its outcome streams to the
// sweep's journal the moment it settles (so a killed process loses at most
// in-flight trials), journaled trials replay instead of re-running,
// transient errors are retried with backoff, and overlong trials are
// flagged/requeued by the watchdog. Trial values must round-trip through
// JSON (exported fields) for replay to be exact.
func runTrials[T any](cfg Config, point string,
	fn func(ctx context.Context, trial int) (T, error)) ([]T, error) {
	n := cfg.trials()
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return runTrialsAt(cfg, point, idxs, fn)
}

// runTrialsAt is runTrials over an explicit, possibly sparse, set of trial
// indices. Trial identity (journal IDs, shard ownership, per-trial seeds
// derived from the index) follows the absolute index, not the position in
// idxs, so a sweep evaluated in sparse pieces — different index subsets per
// process — journals exactly the trials a dense run would, and the merged
// journals replay byte-identical to one dense pass. This is what lets
// intervention sweeps, whose trial axis is a candidate menu rather than a
// 0..n-1 ownership draw, shard and resume safely.
func runTrialsAt[T any](cfg Config, point string, idxs []int,
	fn func(ctx context.Context, trial int) (T, error)) ([]T, error) {
	pol := cfg.Faults
	seed := cfg.seed()
	owns := func(i int) bool { return cfg.Shard == nil || cfg.Shard.Owns(i) }
	planned := 0
	for _, i := range idxs {
		if owns(i) {
			planned++
		}
	}
	mPoints.Inc()
	mTrials.Add(int64(planned))
	mTrialsHist.Observe(int64(planned))
	par := cfg.Parallel
	sp, pointCtx := telemetry.Default().StartSpanCtx(par.Context, "experiments.point", point)
	if sp != nil {
		sp.SetWork(int64(planned))
		par.Context = pointCtx // trial spans nest under the point
		defer sp.End()
	}
	log := cfg.Log.WithStage(point)
	log.Debug("point started", obs.F("trials", planned))
	// The pool maps over positions in idxs; everything identity-bearing
	// uses the absolute trial index idxs[p].
	wrapped := func(ctx context.Context, p int) (T, error) {
		i := idxs[p]
		if !owns(i) {
			var zero T
			return zero, errTrialNotAssigned
		}
		id := checkpoint.TrialID(seed, point, i)
		tsp, ctx := telemetry.Default().StartSpanCtx(ctx, "experiments.trial", id)
		defer tsp.End()
		return checkpoint.RunTrial(cfg.Sweep, ctx, id, func(ctx context.Context) (T, error) {
			if pol.Hook != nil {
				if err := pol.Hook("experiments.trial"); err != nil {
					var zero T
					return zero, err
				}
			}
			return fn(ctx, i)
		})
	}
	// Per-trial accounting streams as each trial settles (it used to be
	// batched after the whole point), chaining any caller-provided hook.
	chained := par.OnSettle
	par.OnSettle = func(p int, err error) {
		i := idxs[p]
		if errors.Is(err, errTrialNotAssigned) {
			return // another shard's trial: no accounting at all
		}
		if err != nil {
			mTrialFailures.Inc()
			log.WithTrial(checkpoint.TrialID(seed, point, i)).Warn("trial failed",
				obs.F("trial_index", i), obs.F("err", err))
		}
		pol.Log.record(point, i, err)
		if chained != nil {
			chained(p, err)
		}
	}
	results, errs, ctxErr := parallel.MapSettle(len(idxs), par, wrapped)
	if ctxErr != nil {
		log.Error("point canceled", obs.F("err", ctxErr))
		return nil, fmt.Errorf("experiments: %s: %w", point, ctxErr)
	}
	ok := results[:0:0]
	failed := 0
	var firstErr error
	for p, err := range errs {
		if errors.Is(err, errTrialNotAssigned) {
			continue
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok = append(ok, results[p])
	}
	if failed == 0 {
		log.Debug("point finished", obs.F("trials", planned))
		return ok, nil
	}
	sp.AddDegradations(fmt.Sprintf("%d/%d trials failed", failed, planned))
	rate := float64(failed) / float64(planned)
	if cfg.Shard != nil {
		// A shard sees only its slice of each point, so the per-point
		// failure-rate policy cannot be judged here: one owned trial failing
		// would read as a 100% point failure even when the fleet-wide rate is
		// tiny. The failures are journaled; the merge, which replays every
		// shard's trials, enforces the policy over the whole point.
		mTolerated.Add(int64(failed))
		log.Warn("shard deferring fault policy to merge", obs.F("failed", failed),
			obs.F("trials", planned), obs.F("rate", rate))
		return ok, nil
	}
	if rate > pol.MaxFailureRate || len(ok) == 0 {
		mPointFailures.Inc()
		log.Error("point failed", obs.F("failed", failed), obs.F("trials", planned),
			obs.F("rate", rate), obs.F("tolerated", pol.MaxFailureRate))
		return nil, fmt.Errorf("experiments: %s: %d/%d trials failed (rate %.2f > tolerated %.2f), first: %w",
			point, failed, planned, rate, pol.MaxFailureRate, firstErr)
	}
	mTolerated.Add(int64(failed))
	log.Warn("tolerated trial failures", obs.F("failed", failed), obs.F("trials", planned),
		obs.F("rate", rate))
	return ok, nil
}

// addPoint runs one point's trials through runTrials and adds the point at x
// to every series. Each trial returns one value per series, and each series
// gets the mean and standard error of its values over the surviving trials,
// folded with stats.Accumulator in trial-index order.
func addPoint(cfg Config, label string, x float64, series []*stats.Series,
	fn func(ctx context.Context, trial int) ([]float64, error)) error {
	vals, err := runTrials(cfg, label, fn)
	if err != nil {
		return err
	}
	for k, s := range series {
		var acc stats.Accumulator
		for _, v := range vals {
			if len(v) != len(series) {
				return fmt.Errorf("experiments: %s: trial has %d values, want one per series (%d)",
					label, len(v), len(series))
			}
			acc.Add(v[k])
		}
		s.Add(x, acc.Mean(), acc.StdErr())
	}
	return nil
}
