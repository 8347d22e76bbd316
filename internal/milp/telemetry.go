// Telemetry instruments for the branch-and-bound layer. Node, prune, and
// incumbent counts are pure functions of the seeded inputs (best-first order
// is deterministic), so they land in the deterministic snapshot sections.
package milp

import "cpsguard/internal/telemetry"

var (
	mSolves     = telemetry.NewCounter("milp.solves")
	mErrors     = telemetry.NewCounter("milp.errors")
	mNodes      = telemetry.NewCounter("milp.nodes_expanded")
	mPruned     = telemetry.NewCounter("milp.nodes_pruned")
	mIncumbents = telemetry.NewCounter("milp.incumbent_updates")
	mUnproven   = telemetry.NewCounter("milp.unproven_exits")
	mNodesHist  = telemetry.NewHistogram("milp.nodes_per_solve", telemetry.WorkEdges)
)

// recordSolve books one Solve outcome and closes its span.
func recordSolve(sp *telemetry.Span, sol *Solution, err error) {
	mSolves.Inc()
	if err != nil {
		mErrors.Inc()
		sp.AddDegradations("error: " + err.Error())
	}
	if sol != nil {
		mNodes.Add(int64(sol.Nodes))
		mNodesHist.Observe(int64(sol.Nodes))
		sp.SetWork(int64(sol.Nodes))
		if sol.X != nil && !sol.Proven {
			// An incumbent returned unproven: a canceled search.
			mUnproven.Inc()
		}
	}
	sp.End()
}
