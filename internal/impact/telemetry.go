// Telemetry instruments for impact analysis. carried counts the perturbed
// dispatches priced against the baseline optimum without an LP solve: the
// solves Carries saved.
package impact

import "cpsguard/internal/telemetry"

var mCarried = telemetry.NewCounter("impact.carried")
