package westgrid

import (
	"math"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
)

func TestStructureMatchesPaper(t *testing.T) {
	g := Build(Options{})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := len(Hubs()); got != 12 {
		t.Fatalf("hubs = %d, want 12 (paper: 12 vertices)", got)
	}
	for _, h := range Hubs() {
		if g.Vertex(h) == nil {
			t.Fatalf("missing hub %s", h)
		}
	}
	// 18 corridors as directed pairs = 36 long-haul edges.
	if got := len(LongHaulAssets(g)); got != 36 {
		t.Fatalf("long-haul edges = %d, want 36 (18 corridors × 2 directions)", got)
	}
	// Paper: "12 actors ... 96 assets". Structure-level match: ~90±10.
	if n := len(g.Edges); n < 80 || n > 105 {
		t.Fatalf("asset count = %d, want ≈96", n)
	}
}

func TestUnstressedDispatchServesEverything(t *testing.T) {
	g := Build(Options{})
	r, err := flow.Dispatch(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Welfare <= 0 {
		t.Fatalf("welfare = %v, want positive", r.Welfare)
	}
	// With full capacity and average demand, nearly all demand is
	// profitable to serve.
	served := r.Served()
	total := g.TotalDemand()
	if served < 0.97*total {
		t.Fatalf("served %v of %v demand (%.1f%%)", served, total, 100*served/total)
	}
}

func TestStressedSpareCapacity(t *testing.T) {
	g := Build(Options{Stress: true})
	cap := ElectricCapacity(g)
	dem := ElectricDemand(g)
	spare := 1 - dem/cap
	// Paper: "about 15% spare capacity". Allow a generous band; the
	// point is scarcity without infeasibility.
	if spare < 0.05 || spare > 0.30 {
		t.Fatalf("stressed electric spare capacity = %.1f%%, want ≈15%%", 100*spare)
	}
	r, err := flow.Dispatch(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Welfare <= 0 {
		t.Fatalf("stressed welfare = %v", r.Welfare)
	}
	// Stressed system still serves the large majority of demand.
	if r.Served() < 0.85*g.TotalDemand() {
		t.Fatalf("stressed system serves only %.1f%%", 100*r.Served()/g.TotalDemand())
	}
}

func TestStressFactorsApplied(t *testing.T) {
	base := Build(Options{})
	stressed := Build(Options{Stress: true})
	if got := ElectricCapacity(stressed) / ElectricCapacity(base); math.Abs(got-StressCapacityFactor) > 1e-9 {
		t.Fatalf("capacity factor = %v, want %v", got, StressCapacityFactor)
	}
	if got := ElectricDemand(stressed) / ElectricDemand(base); math.Abs(got-StressDemandFactor) > 1e-9 {
		t.Fatalf("demand factor = %v, want %v", got, StressDemandFactor)
	}
}

func TestGasElectricCoupling(t *testing.T) {
	// Cutting all gas into CA must reduce CA's electric service or raise
	// system cost: the interdependency the paper models.
	g := Build(Options{Stress: true})
	r, err := flow.Dispatch(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flow[g.EdgeIndex("g2e:CA")] <= 0 {
		t.Fatal("stressed CA should burn gas for power")
	}
	cut, err := impact.Apply(g, impact.Outage("g2e:CA"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := flow.Dispatch(cut)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Welfare >= r.Welfare {
		t.Fatalf("gas-electric decoupling should hurt welfare: %v vs %v", r2.Welfare, r.Welfare)
	}
}

func TestImportPricing(t *testing.T) {
	g := Build(Options{})
	for _, s := range []string{"WA", "CA", "UT"} {
		v := g.Vertex("gasimport:" + s)
		if v == nil {
			t.Fatalf("missing import vertex for %s", s)
		}
		want := data[s].gasPrice * (1 - ImportDiscount)
		if math.Abs(v.SupplyCost-want) > 1e-9 {
			t.Fatalf("%s import cost = %v, want %v (25%% below retail)", s, v.SupplyCost, want)
		}
	}
}

func TestLossesDistanceDerived(t *testing.T) {
	g := Build(Options{})
	// WA-OR is short; WA-UT is long. Losses must order accordingly for
	// both networks.
	short := g.Edge("pipe:WA-OR")
	long := g.Edge("pipe:WA-UT")
	if short == nil || long == nil {
		t.Fatal("missing pipeline edges")
	}
	if short.Loss >= long.Loss {
		t.Fatalf("pipeline losses not distance-ordered: %v vs %v", short.Loss, long.Loss)
	}
	if short.Loss <= 0 || long.Loss >= 0.2 {
		t.Fatalf("pipeline losses implausible: %v, %v", short.Loss, long.Loss)
	}
	ts, tl := g.Edge("tx:WA-OR"), g.Edge("tx:WA-UT")
	if ts.Loss >= tl.Loss {
		t.Fatalf("transmission losses not distance-ordered: %v vs %v", ts.Loss, tl.Loss)
	}
}

func TestCorridorsBidirectional(t *testing.T) {
	g := Build(Options{})
	for _, c := range elecCorridors {
		f := g.Edge("tx:" + c.a + "-" + c.b)
		b := g.Edge("tx:" + c.b + "-" + c.a)
		if f == nil || b == nil {
			t.Fatalf("corridor %s-%s missing a direction", c.a, c.b)
		}
		if f.Capacity != b.Capacity || f.Loss != b.Loss {
			t.Fatalf("corridor %s-%s asymmetric", c.a, c.b)
		}
	}
}

func TestAttacksCreateWinnersUnderCompetition(t *testing.T) {
	// End-to-end sanity on the real model: with several actors, some
	// single-asset outage produces a positive impact for someone.
	g := Build(Options{Stress: true})
	o := actors.RandomOwnership(g, 6, rng.New(42))
	an := &impact.Analysis{Graph: g, Ownership: o}
	m, err := an.ComputeMatrix(LongHaulAssets(g))
	if err != nil {
		t.Fatal(err)
	}
	gain, loss := m.GainLoss()
	if gain <= 0 {
		t.Fatalf("no attack gains found (gain=%v, loss=%v)", gain, loss)
	}
	if loss >= 0 {
		t.Fatalf("no attack losses found (loss=%v)", loss)
	}
	// Zero-sum column check on the real model.
	for j, target := range m.Targets {
		sum := 0.0
		for _, a := range m.Actors {
			sum += m.Get(a, target)
		}
		if math.Abs(sum-m.WelfareDelta[j]) > 1e-5*(1+math.Abs(m.WelfareDelta[j])) {
			t.Fatalf("target %s: Σ impacts %v ≠ Δwelfare %v", target, sum, m.WelfareDelta[j])
		}
	}
}

func TestAllKindsPresent(t *testing.T) {
	g := Build(Options{})
	kinds := map[graph.Kind]int{}
	for _, e := range g.Edges {
		kinds[e.Kind]++
	}
	for _, k := range []graph.Kind{
		graph.KindTransmission, graph.KindPipeline, graph.KindGeneration,
		graph.KindDistribution, graph.KindConversion, graph.KindImport,
	} {
		if kinds[k] == 0 {
			t.Fatalf("no edges of kind %s", k)
		}
	}
}
