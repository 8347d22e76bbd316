// Metric-name lint: every instrument registered anywhere in the tree must
// use the [a-z0-9_.] charset. The rule is what makes the Prometheus name
// mangling (telemetry.PromName, "." → "_") injective — a hyphen or uppercase
// letter would either collide after mangling or produce an invalid exposition
// name — so it is enforced here, once, against the live default registry
// rather than restated in every package.
package cpsguard

import (
	"regexp"
	"testing"

	"cpsguard/internal/telemetry"

	// Imported for their init-time instrument registration: the lint can
	// only see names that reached the default registry.
	_ "cpsguard/internal/adversary"
	_ "cpsguard/internal/checkpoint"
	_ "cpsguard/internal/defense"
	_ "cpsguard/internal/experiments"
	_ "cpsguard/internal/impact"
	_ "cpsguard/internal/lp"
	_ "cpsguard/internal/milp"
	_ "cpsguard/internal/parallel"
	_ "cpsguard/internal/repeated"
	_ "cpsguard/internal/servd"
	_ "cpsguard/internal/shard"
	_ "cpsguard/internal/solvecache"
)

var metricNameRe = regexp.MustCompile(`^[a-z0-9_.]+$`)

func allInstrumentNames() []string {
	counters, hists, timings := telemetry.Default().InstrumentNames()
	names := append(append(counters, hists...), timings...)
	return names
}

func TestMetricNamesWellFormed(t *testing.T) {
	names := allInstrumentNames()
	if len(names) < 30 {
		t.Fatalf("only %d instruments registered — did the side-effect imports break?", len(names))
	}
	for _, n := range names {
		if !metricNameRe.MatchString(n) {
			t.Errorf("metric %q violates ^[a-z0-9_.]+$", n)
		}
	}
}

func TestMetricNamesMangleInjectively(t *testing.T) {
	seen := map[string]string{}
	for _, n := range allInstrumentNames() {
		p := telemetry.PromName(n)
		if prev, dup := seen[p]; dup {
			t.Errorf("metrics %q and %q both mangle to %q", prev, n, p)
		}
		seen[p] = n
	}
}

func TestDefaultRegistryExpositionParses(t *testing.T) {
	// The full default registry — every package's instruments, whatever
	// their current values — must render a strictly parseable exposition.
	if _, _, err := telemetry.ParsePrometheus(telemetry.Default().PrometheusText()); err != nil {
		t.Fatalf("default registry exposition failed the strict parser: %v", err)
	}
}
