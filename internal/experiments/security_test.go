package experiments

import (
	"math"
	"testing"

	"cpsguard/internal/flow"
	"cpsguard/internal/westgrid"
)

// TestSecurityPremiumDeterministic requires repeated runs of the N-1
// security-premium experiment on the stressed westgrid to write
// byte-identical CSV. Its service series divide served-load totals, which
// must be summed in vertex order: a sum in map iteration order moves in the
// last ulp from run to run. Result.Served must equal that vertex-order sum
// bit for bit.
func TestSecurityPremiumDeterministic(t *testing.T) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	r, err := flow.Dispatch(g)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := range g.Vertices {
		want += r.Load[i]
	}
	if got := r.Served(); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("Served() = %v, vertex-order sum %v", got, want)
	}
	runs := 20
	if testing.Short() {
		runs = 5
	}
	var first string
	for i := 0; i < runs; i++ {
		tb, err := SecurityPremium(Config{Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		if csv := tb.CSV(); i == 0 {
			first = csv
		} else if csv != first {
			t.Fatalf("run %d wrote different CSV:\n%s\nrun 0:\n%s", i, csv, first)
		}
	}
}
