package gridgen

import (
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
)

func TestBuildValidatesAndScales(t *testing.T) {
	for _, regions := range []int{2, 6, 12, 24} {
		g, err := Build(Config{Regions: regions, Seed: 3})
		if err != nil {
			t.Fatalf("regions=%d: %v", regions, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("regions=%d invalid: %v", regions, err)
		}
		// Structure: 2 hubs per region; edges grow with regions.
		hubs := 0
		for _, v := range g.Vertices {
			if len(v.ID) > 4 && (v.ID[:4] == "gas:" || v.ID[:5] == "elec:") {
				hubs++
			}
		}
		if hubs != 2*regions {
			t.Fatalf("regions=%d: hubs=%d, want %d", regions, hubs, 2*regions)
		}
		if len(g.Edges) < 8*regions {
			t.Fatalf("regions=%d: only %d edges", regions, len(g.Edges))
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(Config{Regions: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Config{Regions: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, a.Edges[i], b.Edges[i])
		}
	}
	c, err := Build(Config{Regions: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Edges {
		if i < len(c.Edges) && a.Edges[i] != c.Edges[i] {
			same = false
			break
		}
	}
	if same && len(a.Edges) == len(c.Edges) {
		t.Fatal("different seeds produced identical systems")
	}
}

func TestBuildDispatches(t *testing.T) {
	g, err := Build(Config{Regions: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := flow.Dispatch(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Welfare <= 0 {
		t.Fatalf("welfare = %v", r.Welfare)
	}
	if r.Served() < 0.8*g.TotalDemand() {
		t.Fatalf("generated system serves only %.0f%% of demand",
			100*r.Served()/g.TotalDemand())
	}
}

func TestStressReducesHeadroom(t *testing.T) {
	base, err := Build(Config{Regions: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	stressed, err := Build(Config{Regions: 6, Seed: 2, Stress: true})
	if err != nil {
		t.Fatal(err)
	}
	if stressed.TotalDemand() <= base.TotalDemand() {
		t.Fatal("stress did not raise demand")
	}
	if stressed.TotalSupply() >= base.TotalSupply() {
		t.Fatal("stress did not cut generation capacity")
	}
}

func TestGeneratedSystemSupportsImpactAnalysis(t *testing.T) {
	g, err := Build(Config{Regions: 6, Seed: 9, Stress: true})
	if err != nil {
		t.Fatal(err)
	}
	o := actors.RandomOwnership(g, 4, rng.New(1))
	an := &impact.Analysis{Graph: g, Ownership: o}
	// Subset of targets to keep the test fast.
	targets := g.AssetIDs()[:10]
	m, err := an.ComputeMatrix(targets)
	if err != nil {
		t.Fatal(err)
	}
	for j, tg := range m.Targets {
		if m.WelfareDelta[j] > 1e-6 {
			t.Fatalf("attack on %s increased welfare", tg)
		}
	}
}

func TestBuildRejectsTooFewRegions(t *testing.T) {
	if _, err := Build(Config{Regions: 1}); err == nil {
		t.Fatal("1 region accepted")
	}
}

func TestKindsPresent(t *testing.T) {
	g, err := Build(Config{Regions: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := g.KindCounts()
	for _, k := range []graph.Kind{
		graph.KindTransmission, graph.KindPipeline, graph.KindGeneration,
		graph.KindDistribution, graph.KindConversion, graph.KindImport,
	} {
		if counts[k] == 0 {
			t.Fatalf("no %s edges generated", k)
		}
	}
}

func TestBuildSmallRegionCounts(t *testing.T) {
	// 2 and 3 regions have no valid chords; the build must not panic.
	for _, r := range []int{2, 3} {
		g, err := Build(Config{Regions: r, Seed: 1})
		if err != nil {
			t.Fatalf("regions=%d: %v", r, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("regions=%d invalid: %v", r, err)
		}
	}
}
