package cpsguard

import (
	"math"
	"testing"
)

// TestFacadeEndToEnd exercises the whole public surface on a small model:
// build → dispatch → ownership → impact matrix → adversary → game round.
func TestFacadeEndToEnd(t *testing.T) {
	g := NewGraph("facade")
	g.MustAddVertex(Vertex{ID: "gen1", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(Vertex{ID: "gen2", Supply: 100, SupplyCost: 3})
	g.MustAddVertex(Vertex{ID: "city", Demand: 120, Price: 10})
	g.MustAddEdge(Edge{ID: "l1", From: "gen1", To: "city", Capacity: 80, Kind: KindTransmission})
	g.MustAddEdge(Edge{ID: "l2", From: "gen2", To: "city", Capacity: 80, Kind: KindTransmission})

	res, err := Dispatch(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Welfare <= 0 {
		t.Fatalf("welfare = %v", res.Welfare)
	}

	o := RandomOwnership(g, 2, 1)
	if len(o) != 2 {
		t.Fatalf("ownership = %v", o)
	}

	an := &ImpactAnalysis{Graph: g, Ownership: Ownership{"l1": "A", "l2": "B"}}
	m, err := an.ComputeMatrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	gain, _ := m.GainLoss()
	if gain <= 0 {
		t.Fatal("competitive duopoly should show attack gains")
	}

	plan, err := SolveAdversary(AdversaryConfig{
		Matrix:  m,
		Targets: UniformTargets(g.AssetIDs(), 1, 1),
		Budget:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Anticipated <= 0 || len(plan.Targets) != 1 {
		t.Fatalf("plan = %+v", plan)
	}

	s := NewScenario(g, 2, 5)
	round, err := PlayRound(s, GameConfig{
		AttackBudget: 1, DefenseBudgetPerActor: 2, PaSamples: 4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if round.Effectiveness < 0 {
		t.Fatalf("effectiveness = %v", round.Effectiveness)
	}
}

func TestFacadeWestgridAndOutage(t *testing.T) {
	g := Westgrid(WestgridOptions{Stress: true})
	if len(g.Edges) < 80 {
		t.Fatalf("westgrid too small: %d edges", len(g.Edges))
	}
	p := Outage("g2e:CA")
	if p.EdgeID != "g2e:CA" || p.Value != 0 {
		t.Fatalf("Outage = %+v", p)
	}
}

func TestFacadeExperimentRunnersWired(t *testing.T) {
	// Tiny smoke run of one figure through the facade.
	g := NewGraph("tiny")
	g.MustAddVertex(Vertex{ID: "g1", Supply: 50, SupplyCost: 2})
	g.MustAddVertex(Vertex{ID: "g2", Supply: 50, SupplyCost: 3})
	g.MustAddVertex(Vertex{ID: "c", Demand: 70, Price: 9})
	g.MustAddEdge(Edge{ID: "a", From: "g1", To: "c", Capacity: 40})
	g.MustAddEdge(Edge{ID: "b", From: "g2", To: "c", Capacity: 40})
	tb, err := Fig2(ExperimentConfig{Graph: g, Trials: 2, ActorGrid: []int{2}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tb.FindSeries("gain") == nil {
		t.Fatal("fig2 missing gain series")
	}
	if math.IsNaN(tb.Series[0].Points[0].Y) {
		t.Fatal("NaN in experiment output")
	}
}

func TestProfitModelsExported(t *testing.T) {
	var m ProfitModel = LMPDivision{}
	if m.Name() != "lmp" {
		t.Fatal("LMPDivision not wired")
	}
	m = IterativeDivision{}
	if m.Name() != "iterative" {
		t.Fatal("IterativeDivision not wired")
	}
	g := NewGraph("pair")
	g.MustAddVertex(Vertex{ID: "gen", Supply: 10, SupplyCost: 1})
	g.MustAddVertex(Vertex{ID: "city", Demand: 10, Price: 5})
	g.MustAddEdge(Edge{ID: "line", From: "gen", To: "city", Capacity: 10})
	r, err := Dispatch(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DivideProfits(LMPDivision{}, g, r, Ownership{"line": "A"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p["A"]-r.Welfare) > 1e-9 || len(p) != 1 {
		t.Fatalf("DivideProfits = %v, want all %v welfare to A", p, r.Welfare)
	}
}

func TestFacadeExtensionsWired(t *testing.T) {
	g, err := GenerateGrid(GridgenConfig{Regions: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) < 20 {
		t.Fatalf("generated grid too small: %d edges", len(g.Edges))
	}
	mp, err := MultiPeriodDispatch(MultiPeriodConfig{
		Graph:   g,
		Periods: []Period{{Name: "a", Weight: 1}, {Name: "b", Weight: 2, DemandScale: 1.1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Total <= 0 {
		t.Fatalf("multiperiod welfare = %v", mp.Total)
	}
	sec, err := SecureDispatch(SecureConfig{
		Graph:         g,
		Contingencies: []string{g.Edges[0].ID},
		MinService:    0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sec.SecurityPremium < -1e-6 {
		t.Fatalf("premium = %v", sec.SecurityPremium)
	}
	s := NewScenario(g, 2, 3)
	rep, err := PlayRepeated(s, RepeatedConfig{
		Rounds: 2, AttackBudget: 1, DefenseBudgetPerActor: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 2 {
		t.Fatalf("rounds = %d", len(rep.Rounds))
	}
	truth, err := s.Truth()
	if err != nil {
		t.Fatal(err)
	}
	h, err := PlanHardening(HardeningConfig{
		Matrix:     truth,
		Targets:    s.Targets,
		AttackProb: map[string]float64{g.Edges[0].ID: 1},
		Budget:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if h == nil {
		t.Fatal("nil hardening")
	}
	if b := EdgeBetweenness(g); len(b) != len(g.Edges) {
		t.Fatalf("betweenness size = %d", len(b))
	}
}
