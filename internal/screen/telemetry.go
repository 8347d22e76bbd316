// Telemetry instruments for the N-k screen. Evaluated vs pruned is the
// screen's effectiveness ratio: (evaluated+pruned)/evaluated is the
// candidate-reduction factor the bench report tracks.
package screen

import "cpsguard/internal/telemetry"

var (
	mRuns      = telemetry.NewCounter("screen.runs")
	mEvaluated = telemetry.NewCounter("screen.evaluated")
	mPruned    = telemetry.NewCounter("screen.pruned")
)
