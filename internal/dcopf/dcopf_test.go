package dcopf

import (
	"math"
	"testing"

	"cpsguard/internal/graph"
	"cpsguard/internal/westgrid"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// twoLine: one generator, one load, two parallel lossless lines of equal
// capacity but different susceptance.
func twoLine(b1, b2 float64) (*graph.Graph, Options) {
	g := graph.New("dc")
	g.MustAddVertex(graph.Vertex{ID: "gen", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "load", Demand: 60, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "l1", From: "gen", To: "load", Capacity: 100})
	g.MustAddEdge(graph.Edge{ID: "l2", From: "gen", To: "load", Capacity: 100})
	sus := map[string]float64{"l1": b1, "l2": b2}
	return g, Options{Susceptance: func(e *graph.Edge) float64 { return sus[e.ID] }}
}

func TestFlowsSplitBySusceptance(t *testing.T) {
	g, opts := twoLine(30, 10) // l1 is 3× stiffer → carries 3/4
	r, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r.Load["load"], 60, 1e-6) {
		t.Fatalf("load = %v", r.Load["load"])
	}
	if !approx(r.Flow["l1"], 45, 1e-6) || !approx(r.Flow["l2"], 15, 1e-6) {
		t.Fatalf("flows = %v / %v, want 45 / 15 (susceptance split)", r.Flow["l1"], r.Flow["l2"])
	}
	// Angles consistent: f = B·Δθ.
	dth := r.Angle["gen"] - r.Angle["load"]
	if !approx(30*dth, 45, 1e-6) {
		t.Fatalf("Kirchhoff violated: B·Δθ = %v, f = 45", 30*dth)
	}
}

func TestKirchhoffCongestionCascades(t *testing.T) {
	// Physics makes congestion worse than transport routing: if the
	// stiff line is small, flow cannot simply be diverted to the big
	// one — the angle difference that pushes the big line also overloads
	// the small one.
	g := graph.New("cascade")
	g.MustAddVertex(graph.Vertex{ID: "gen", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "load", Demand: 80, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "stiff", From: "gen", To: "load", Capacity: 10})
	g.MustAddEdge(graph.Edge{ID: "slack", From: "gen", To: "load", Capacity: 100})
	sus := map[string]float64{"stiff": 30, "slack": 10}
	opts := Options{Susceptance: func(e *graph.Edge) float64 { return sus[e.ID] }}
	r, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The stiff line saturates at 10; the slack line then carries
	// 10·(10/30) = 3.33 — total service is 13.33, not 80.
	if !approx(r.Flow["stiff"], 10, 1e-6) {
		t.Fatalf("stiff flow = %v, want 10 (binding)", r.Flow["stiff"])
	}
	if !approx(r.Flow["slack"], 10.0/3, 1e-6) {
		t.Fatalf("slack flow = %v, want 3.33 (angle-limited)", r.Flow["slack"])
	}
	if r.Load["load"] > 14 {
		t.Fatalf("DC service = %v, physics should cap it at 13.33", r.Load["load"])
	}
}

func TestTransportDominatesDC(t *testing.T) {
	// On the same (lossless) network, freely-routed transport welfare is
	// an upper bound on the Kirchhoff-constrained welfare.
	g := graph.New("cmp")
	g.MustAddVertex(graph.Vertex{ID: "gen", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "mid"})
	g.MustAddVertex(graph.Vertex{ID: "load", Demand: 80, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "a", From: "gen", To: "mid", Capacity: 50})
	g.MustAddEdge(graph.Edge{ID: "b", From: "mid", To: "load", Capacity: 50})
	g.MustAddEdge(graph.Edge{ID: "c", From: "gen", To: "load", Capacity: 40})
	tr, dc, gap, err := Compare(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gap < -1e-6 {
		t.Fatalf("DC welfare (%v) exceeded transport welfare (%v)", dc, tr)
	}
	if tr <= 0 || dc <= 0 {
		t.Fatalf("welfare degenerate: tr=%v dc=%v", tr, dc)
	}
}

func TestDeadLineCarriesNothing(t *testing.T) {
	g, opts := twoLine(30, 0) // l2 outaged (zero susceptance)
	r, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flow["l2"] != 0 {
		t.Fatalf("dead line flows: %v", r.Flow["l2"])
	}
	if !approx(r.Flow["l1"], 60, 1e-6) {
		t.Fatalf("live line = %v, want 60", r.Flow["l1"])
	}
}

func TestReferenceAngleZero(t *testing.T) {
	g, opts := twoLine(10, 10)
	r, err := Solve(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := g.Vertices[0].ID
	if !approx(r.Angle[first], 0, 1e-9) {
		t.Fatalf("reference angle = %v", r.Angle[first])
	}
}

func TestDefaultSusceptance(t *testing.T) {
	e := &graph.Edge{Capacity: 50}
	if DefaultSusceptance(e) != 50 {
		t.Fatal("default susceptance should scale with capacity")
	}
	if DefaultSusceptance(&graph.Edge{}) != 0 {
		t.Fatal("zero-capacity line must have zero susceptance")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Solve(nil, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g, _ := twoLine(1, 1)
	g.Edges[0].Loss = 2
	if _, err := Solve(g, Options{}); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

func TestUnprofitableStaysDark(t *testing.T) {
	g := graph.New("dark")
	g.MustAddVertex(graph.Vertex{ID: "gen", Supply: 10, SupplyCost: 50})
	g.MustAddVertex(graph.Vertex{ID: "load", Demand: 10, Price: 5})
	g.MustAddEdge(graph.Edge{ID: "l", From: "gen", To: "load", Capacity: 10})
	r, err := Solve(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Welfare != 0 || r.Flow["l"] != 0 {
		t.Fatalf("uneconomic dispatch ran: %+v", r)
	}
}

// TestStressedWestgridSolves pins the degenerate case: the stressed
// westgrid's DC-OPF must solve in its one simplex call at the optimum the
// bounds-as-rows simplex found (235516.7573616602).
func TestStressedWestgridSolves(t *testing.T) {
	r, err := Solve(westgrid.Build(westgrid.Options{Stress: true}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 235516.7573616602; !approx(r.Welfare, want, 1e-6*want) {
		t.Fatalf("welfare = %v, want %v", r.Welfare, want)
	}
}
