package lp_test

import (
	"math"
	"slices"
	"testing"

	"cpsguard/internal/lp"
)

// TestPivotKernelMatchesFullRow runs every solve of the carried-pricing
// battery (seeded random LPs cold and warm, the stressed westgrid baseline
// dispatch, its first outages and cost-perturbed warm dispatches) twice:
// with the nonzero-only pivot kernel and with the full-row reference kept
// in export_test.go. The basis and nonbasic statuses after every pivot and
// bound flip — hence the entering/leaving sequence — must match, and every
// observable (objective, X, duals, bound duals) must be bit-identical.
func TestPivotKernelMatchesFullRow(t *testing.T) {
	var trace []int
	restoreHook := lp.SetPricingHook(func(s lp.PricingState) {
		trace = append(trace, s.Iter)
		trace = append(trace, s.Basis...)
		for _, st := range s.Status {
			trace = append(trace, int(st))
		}
	})
	defer restoreHook()

	run := func(c pricingCase, reference bool) ([]float64, []int) {
		t.Helper()
		if reference {
			defer lp.UseReferenceKernel()()
		}
		trace = nil
		obs, _, err := c.run()
		if err != nil {
			t.Fatalf("%s (reference %v): %v", c.label, reference, err)
		}
		return obs, trace
	}
	var steps int
	for _, c := range pricingCases(t) {
		gotObs, gotTrace := run(c, false)
		wantObs, wantTrace := run(c, true)
		if !slices.Equal(gotTrace, wantTrace) {
			t.Fatalf("%s: pivot path differs from the full-row kernel", c.label)
		}
		steps += len(gotTrace)
		if len(gotObs) != len(wantObs) {
			t.Fatalf("%s: %d observables, reference %d", c.label, len(gotObs), len(wantObs))
		}
		for k := range gotObs {
			if math.Float64bits(gotObs[k]) != math.Float64bits(wantObs[k]) {
				t.Errorf("%s: observable %d is %v, full-row kernel %v", c.label, k, gotObs[k], wantObs[k])
			}
		}
	}
	if steps == 0 {
		t.Fatal("no pivot was traced")
	}
}
