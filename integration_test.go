package cpsguard

import (
	"math"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/adversary"
	"cpsguard/internal/core"
	"cpsguard/internal/defense"
	"cpsguard/internal/flow"
	"cpsguard/internal/impact"
	"cpsguard/internal/multiperiod"
	"cpsguard/internal/rng"
	"cpsguard/internal/westgrid"
)

// TestFullPipelineOnWestgrid runs the complete paper pipeline on the real
// evaluation model: dispatch → profit division → impact matrix → adversary
// → defense → settlement, checking the cross-module invariants that no
// single package test can see.
func TestFullPipelineOnWestgrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model integration test")
	}
	g := westgrid.Build(westgrid.Options{Stress: true})
	scn := core.NewScenario(g, 6, 99)

	truth, err := scn.Truth()
	if err != nil {
		t.Fatal(err)
	}
	// Invariant: every impact column is zero-sum against welfare delta,
	// and no attack increases welfare.
	for j, target := range truth.Targets {
		sum := 0.0
		for _, a := range truth.Actors {
			sum += truth.Get(a, target)
		}
		dw := truth.WelfareDelta[j]
		if math.Abs(sum-dw) > 1e-4*(1+math.Abs(dw)) {
			t.Fatalf("column %s not zero-sum: %v vs %v", target, sum, dw)
		}
		if dw > 1e-6 {
			t.Fatalf("attack on %s increased welfare by %v", target, dw)
		}
	}

	// Adversary: the exact plan must be proven and respect the budget.
	exact, err := adversary.Solve(adversary.Config{Matrix: truth, Targets: scn.Targets, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !exact.Proven {
		t.Fatalf("exact plan unproven (gap %v)", exact.Gap)
	}
	if len(exact.Targets) > 4 {
		t.Fatalf("budget violated: %v", exact.Targets)
	}

	// Defense: perfect-knowledge collaborative defense of the known plan
	// must drive the adversary's realized profit to at most the empty-
	// attack level (she still pays costs).
	pa := map[string]float64{}
	for _, tg := range exact.Targets {
		pa[tg] = 1
	}
	budgets := map[string]float64{}
	for _, a := range truth.Actors {
		budgets[a] = 4
	}
	cinv, err := defense.PlanCollaborative(defense.CollaborativeConfig{
		Matrix: truth, Ownership: scn.Ownership,
		AttackProb: defense.SharedAttackProb(truth, pa),
		Costs:      defense.UniformCosts(truth.Targets, 1),
		Budget:     budgets,
	})
	if err != nil {
		t.Fatal(err)
	}
	realized := adversary.Evaluate(exact, truth, scn.Targets,
		adversary.EvaluateOptions{Defended: cinv.Defended})
	undefended := adversary.Evaluate(exact, truth, scn.Targets, adversary.EvaluateOptions{})
	if realized > undefended {
		t.Fatalf("defense helped the adversary: %v > %v", realized, undefended)
	}
}

// TestProfitModelsAgreeOnWestgrid cross-checks the two profit-division
// models on the full evaluation system: totals must match welfare exactly,
// per-actor values approximately (they are different competitive
// estimates, not identical formulas).
func TestProfitModelsAgreeOnWestgrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model integration test")
	}
	g := westgrid.Build(westgrid.Options{Stress: true})
	r, err := flow.Dispatch(g)
	if err != nil {
		t.Fatal(err)
	}
	o := actors.RandomOwnership(g, 4, rng.New(17))
	lmp, err := actors.Divide(actors.LMPDivision{}, g, r, o)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := actors.Divide(actors.IterativeDivision{}, g, r, o)
	if err != nil {
		t.Fatal(err)
	}
	tol := 1e-6 * (1 + math.Abs(r.Welfare))
	if math.Abs(lmp.Total()-r.Welfare) > tol {
		t.Fatalf("LMP total %v ≠ welfare %v", lmp.Total(), r.Welfare)
	}
	if math.Abs(iter.Total()-r.Welfare) > tol {
		t.Fatalf("iterative total %v ≠ welfare %v", iter.Total(), r.Welfare)
	}
}

// TestMultiperiodWestgrid runs the time-domain extension over the real
// model: a one-period gas import outage with ramped hydro recovery.
func TestMultiperiodWestgrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-model integration test")
	}
	g := westgrid.Build(westgrid.Options{})
	cfg := multiperiod.Config{
		Graph: g,
		Periods: []multiperiod.Period{
			{Name: "offpeak", Weight: 1, DemandScale: 0.9},
			{Name: "peak", Weight: 1, DemandScale: 1.2},
			{Name: "late", Weight: 1, DemandScale: 1.0},
		},
		Ramp: map[string]float64{"gen:WA:hydro": 100},
	}
	base, err := multiperiod.Dispatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Total <= 0 {
		t.Fatalf("multiperiod welfare = %v", base.Total)
	}
	// CA's import is substitutable through neighboring pipelines; its
	// distribution feeder is not.
	delta, err := multiperiod.ImpactOf(cfg, multiperiod.TimedAttack{
		Perturbation: impact.Outage("gasdist:CA"), From: 1, To: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if delta >= 0 {
		t.Fatalf("peak-hour CA gas distribution outage should hurt: %v", delta)
	}
}

// TestFailureInjection drives broken inputs through every layer and checks
// they surface as errors rather than wrong numbers.
func TestFailureInjection(t *testing.T) {
	// Disconnected demand: dispatch succeeds with zero service.
	g := NewGraph("disconnected")
	g.MustAddVertex(Vertex{ID: "island", Demand: 10, Price: 5})
	g.MustAddVertex(Vertex{ID: "gen", Supply: 10, SupplyCost: 1})
	r, err := Dispatch(g)
	if err != nil {
		t.Fatalf("disconnected dispatch should succeed trivially: %v", err)
	}
	if r.Welfare != 0 {
		t.Fatalf("disconnected welfare = %v, want 0", r.Welfare)
	}

	// Invalid loss caught before the LP.
	bad := NewGraph("bad")
	bad.MustAddVertex(Vertex{ID: "a", Supply: 1})
	bad.MustAddVertex(Vertex{ID: "b", Demand: 1, Price: 1})
	bad.MustAddEdge(Edge{ID: "e", From: "a", To: "b", Capacity: 1})
	bad.Edges[0].Loss = 1.0
	if _, err := Dispatch(bad); err == nil {
		t.Fatal("loss=1 accepted")
	}

	// Attacking a non-existent asset.
	an := &ImpactAnalysis{Graph: g, Ownership: Ownership{}}
	if _, _, err := an.Of(Outage("ghost")); err == nil {
		t.Fatal("ghost target accepted")
	}

	// Adversary with inconsistent target (matrix lacks it) still works —
	// it simply never pays for valueless targets.
	m, err := an.ComputeMatrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := SolveAdversary(AdversaryConfig{
		Matrix:  m,
		Targets: UniformTargets([]string{"ghost"}, 1, 1),
		Budget:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Targets) != 0 {
		t.Fatalf("valueless ghost target attacked: %v", plan.Targets)
	}
}
