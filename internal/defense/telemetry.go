// Telemetry instruments for the defender layer: how many plans of each kind
// were solved, how many Pa estimation samples were drawn, and how many
// targets ended up defended. All counts are functions of the seeded inputs.
package defense

import "cpsguard/internal/telemetry"

var (
	mIndependent  = telemetry.NewCounter("defense.independent_plans")
	mCollab       = telemetry.NewCounter("defense.collaborative_plans")
	mPlanErrors   = telemetry.NewCounter("defense.plan_errors")
	mPaEstimates  = telemetry.NewCounter("defense.pa_estimates")
	mPaSamples    = telemetry.NewCounter("defense.pa_samples")
	mDefended     = telemetry.NewCounter("defense.defended_targets")
	mDefendedHist = telemetry.NewHistogram("defense.defended_per_plan", telemetry.DepthEdges)
)
