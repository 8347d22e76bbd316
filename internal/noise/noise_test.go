package noise

import (
	"math"
	"testing"

	"cpsguard/internal/graph"
	"cpsguard/internal/rng"
)

func testGraph() *graph.Graph {
	g := graph.New("n")
	g.MustAddVertex(graph.Vertex{ID: "s", Supply: 100, SupplyCost: 3})
	g.MustAddVertex(graph.Vertex{ID: "d", Demand: 80, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "e", From: "s", To: "d", Capacity: 90, Loss: 0.05, Cost: 0.5})
	return g
}

func TestZeroSigmaIsIdentity(t *testing.T) {
	g := testGraph()
	out := Perturb(g, Model{Sigma: 0}, rng.New(1))
	if out.Edges[0] != g.Edges[0] || out.Vertices[0] != g.Vertices[0] {
		t.Fatal("σ=0 must reproduce ground truth")
	}
}

func TestInputNeverModified(t *testing.T) {
	g := testGraph()
	before := *g.Edge("e")
	_ = Perturb(g, Model{Sigma: 0.5}, rng.New(2))
	if *g.Edge("e") != before {
		t.Fatal("Perturb mutated its input")
	}
}

func TestPerturbationScale(t *testing.T) {
	g := testGraph()
	const sigma = 0.1
	const trials = 2000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		out := Perturb(g, Model{Sigma: sigma}, rng.Derive(3, uint64(i)))
		rel := out.Edges[0].Capacity/g.Edges[0].Capacity - 1
		sum += rel
		sumSq += rel * rel
	}
	mean := sum / trials
	sd := math.Sqrt(sumSq/trials - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("perturbation biased: mean rel change %v", mean)
	}
	if math.Abs(sd-sigma) > 0.01 {
		t.Fatalf("relative stddev = %v, want ≈%v", sd, sigma)
	}
}

func TestDomainsRespected(t *testing.T) {
	g := testGraph()
	for i := 0; i < 500; i++ {
		out := Perturb(g, Model{Sigma: 2.0}, rng.Derive(4, uint64(i))) // violent noise
		for _, v := range out.Vertices {
			if v.Supply < 0 || v.Demand < 0 || v.SupplyCost < 0 || v.Price < 0 {
				t.Fatalf("negative vertex parameter after clamp: %+v", v)
			}
		}
		for _, e := range out.Edges {
			if e.Capacity < 0 {
				t.Fatalf("negative capacity: %v", e.Capacity)
			}
			if e.Loss < 0 || e.Loss > 0.95 {
				t.Fatalf("loss %v outside [0,0.95]", e.Loss)
			}
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("perturbed graph invalid: %v", err)
		}
	}
}

func TestSkipCosts(t *testing.T) {
	g := testGraph()
	out := Perturb(g, Model{Sigma: 0.5, SkipCosts: true}, rng.New(5))
	if out.Edges[0].Cost != g.Edges[0].Cost ||
		out.Vertices[0].SupplyCost != g.Vertices[0].SupplyCost ||
		out.Vertices[1].Price != g.Vertices[1].Price {
		t.Fatal("SkipCosts did not preserve costs")
	}
	if out.Edges[0].Capacity == g.Edges[0].Capacity {
		t.Fatal("SkipCosts should still perturb capacity")
	}
}

func TestDeterministicGivenStream(t *testing.T) {
	g := testGraph()
	a := Perturb(g, Model{Sigma: 0.2}, rng.New(9))
	b := Perturb(g, Model{Sigma: 0.2}, rng.New(9))
	if a.Edges[0].Capacity != b.Edges[0].Capacity {
		t.Fatal("same stream produced different noise")
	}
}
