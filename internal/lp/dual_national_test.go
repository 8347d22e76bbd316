package lp_test

import (
	"math"
	"strings"
	"testing"

	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/lp"
	"cpsguard/internal/rng"
)

// TestDualReentryMatchesColdNational re-dispatches the 64-region national
// instance under capacity-zero outages of its first 32 corridor targets —
// every single outage and a seeded sample of 32 pairs, the screen
// benchmark's perturbations — warm from the baseline basis under
// MethodAuto. An outage makes that basis primal infeasible but leaves
// it dual feasible, so every solve must re-enter through the dual phase
// (WarmStarted, no lp.warm_fallbacks) and agree with a cold solve on
// status, welfare and primal feasibility.
func TestDualReentryMatchesColdNational(t *testing.T) {
	if testing.Short() {
		t.Skip("national instance: 128 sparse dispatches")
	}
	g, err := gridgen.Build(gridgen.Config{
		Regions: 64, Seed: 3, Tier: gridgen.TierNational, Stress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, id := range g.AssetIDs() {
		if strings.HasPrefix(id, "tx:") || strings.HasPrefix(id, "pipe:") {
			targets = append(targets, id)
		}
	}
	if len(targets) < 32 {
		t.Fatalf("national grid has %d corridor targets, want ≥ 32", len(targets))
	}
	targets = targets[:32]
	revised := lp.Options{Method: lp.MethodAuto}
	base, err := flow.DispatchOpts(g, flow.Options{LP: revised})
	if err != nil {
		t.Fatal(err)
	}
	if base.Basis == nil {
		t.Fatal("baseline exported no basis")
	}

	sets := make([][]string, 0, 64)
	for _, id := range targets {
		sets = append(sets, []string{id})
	}
	rs := rng.New(14)
	for len(sets) < 64 {
		a, b := rs.Intn(len(targets)), rs.Intn(len(targets))
		if a != b {
			sets = append(sets, []string{targets[a], targets[b]})
		}
	}

	fallbacks := lp.WarmFallbacks()
	for _, set := range sets {
		label := strings.Join(set, "+")
		out := g.Clone()
		for _, id := range set {
			out.Edge(id).Capacity = 0
		}
		cold, errC := flow.DispatchOpts(out, flow.Options{LP: revised})
		warm, errW := flow.DispatchOpts(out, flow.Options{LP: lp.Options{
			Method: lp.MethodAuto, WarmStart: base.Basis,
		}})
		if (errC == nil) != (errW == nil) {
			t.Fatalf("%s: cold err %v, warm err %v", label, errC, errW)
		}
		if errC != nil {
			continue
		}
		if !warm.WarmStarted {
			t.Errorf("%s: warm solve fell back to the cold path", label)
		}
		scale := math.Max(1, math.Abs(cold.Welfare))
		if math.Abs(warm.Welfare-cold.Welfare) > 1e-9*scale {
			t.Errorf("%s: warm welfare %v, cold %v", label, warm.Welfare, cold.Welfare)
		}
		checkDispatchFeasible(t, label+" (warm)", out, warm)
		checkDispatchFeasible(t, label+" (cold)", out, cold)
	}
	if d := lp.WarmFallbacks() - fallbacks; d != 0 {
		t.Errorf("lp.warm_fallbacks moved by %d", d)
	}
}

// checkDispatchFeasible asserts r is a primal feasible dispatch of g: every
// flow, injection and delivery inside its bounds and every hub balanced.
func checkDispatchFeasible(t *testing.T, label string, g *graph.Graph, r *flow.Result) {
	t.Helper()
	const tol = 1e-7
	balance := make([]float64, len(g.Vertices))
	for j, e := range g.Edges {
		f := r.Flow[j]
		if f < -tol || f > e.Capacity+tol*math.Max(1, e.Capacity) {
			t.Errorf("%s: flow[%s] = %v outside [0, %v]", label, e.ID, f, e.Capacity)
		}
		balance[g.VertexIndex(e.To)] += f
		balance[g.VertexIndex(e.From)] -= f / (1 - e.Loss)
	}
	for i, v := range g.Vertices {
		if x := r.Gen[i]; x < -tol || x > v.Supply+tol*math.Max(1, v.Supply) {
			t.Errorf("%s: gen[%s] = %v outside [0, %v]", label, v.ID, x, v.Supply)
		}
		if x := r.Load[i]; x < -tol || x > v.Demand+tol*math.Max(1, v.Demand) {
			t.Errorf("%s: load[%s] = %v outside [0, %v]", label, v.ID, x, v.Demand)
		}
		if b := balance[i] + r.Gen[i] - r.Load[i]; math.Abs(b) > tol*math.Max(1, v.Supply+v.Demand) {
			t.Errorf("%s: hub %s unbalanced by %v", label, v.ID, b)
		}
	}
}
