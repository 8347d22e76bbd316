// Telemetry instruments for the strategic-adversary layer. The DFS is
// sequential and seeded, so node and evaluation counts are deterministic.
package adversary

import "cpsguard/internal/telemetry"

var (
	mSolves      = telemetry.NewCounter("adversary.solves")
	mErrors      = telemetry.NewCounter("adversary.errors")
	mNodes       = telemetry.NewCounter("adversary.nodes")
	mEvaluations = telemetry.NewCounter("adversary.evaluations")
	mUnproven    = telemetry.NewCounter("adversary.unproven_exits")
	mNodesHist   = telemetry.NewHistogram("adversary.nodes_per_solve", telemetry.WorkEdges)
	// Targets dropped from the search order for a strictly negative
	// optimistic net value.
	mPrunedTargets = telemetry.NewCounter("adversary.pruned_targets")
)

// recordSolve books one exact Solve outcome and closes its span.
func recordSolve(sp *telemetry.Span, plan *Plan, err error) {
	mSolves.Inc()
	if err != nil {
		mErrors.Inc()
		sp.AddDegradations("error: " + err.Error())
	}
	if plan != nil {
		mNodes.Add(int64(plan.Nodes))
		mNodesHist.Observe(int64(plan.Nodes))
		sp.SetWork(int64(plan.Nodes))
		if !plan.Proven {
			mUnproven.Inc()
		}
	}
	sp.End()
}
