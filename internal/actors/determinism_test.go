package actors

import (
	"math"
	"testing"

	"cpsguard/internal/flow"
	"cpsguard/internal/rng"
	"cpsguard/internal/westgrid"
)

// TestIterativeDivisionDeterministic requires 20 IterativeDivision
// divisions of the stressed westgrid dispatch to agree bit for bit, values
// and key set: the claimed rents and the residual they leave are summed in
// edge order, not in map iteration order.
func TestIterativeDivisionDeterministic(t *testing.T) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	r, err := flow.Dispatch(g)
	if err != nil {
		t.Fatal(err)
	}
	o := RandomOwnership(g, 6, rng.New(2))
	runs := 20
	if testing.Short() {
		runs = 3
	}
	var first Profits
	for i := 0; i < runs; i++ {
		p, err := Divide(IterativeDivision{}, g, r, o)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = p
			continue
		}
		if len(p) != len(first) {
			t.Fatalf("call %d: %d actors, call 0: %d", i, len(p), len(first))
		}
		for a, v := range first {
			if w, ok := p[a]; !ok || math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("call %d: actor %s profit %v, call 0: %v", i, a, w, v)
			}
		}
	}
}
