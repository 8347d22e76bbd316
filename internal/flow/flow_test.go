package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cpsguard/internal/graph"
)

const eps = 1e-6

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// simpleChain builds gen →(cap 100)→ hub →(cap 90, loss 5%)→ load.
func simpleChain() *graph.Graph {
	g := graph.New("chain")
	g.MustAddVertex(graph.Vertex{ID: "gen", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "hub"})
	g.MustAddVertex(graph.Vertex{ID: "load", Demand: 80, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "g-h", From: "gen", To: "hub", Capacity: 100, Cost: 0.1})
	g.MustAddEdge(graph.Edge{ID: "h-l", From: "hub", To: "load", Capacity: 90, Loss: 0.05, Cost: 0.2})
	return g
}

// edge reads the entry of edge id from s, a slice indexed like g.Edges.
func edge(g *graph.Graph, s []float64, id string) float64 { return s[g.EdgeIndex(id)] }

// vertex reads the entry of vertex id from s, a slice indexed like
// g.Vertices.
func vertex(g *graph.Graph, s []float64, id string) float64 { return s[g.VertexIndex(id)] }

// Balance returns the conservation residual at vertex id under result r:
// inflow + gen − Σ out f/(1−l) − load. A correct dispatch keeps this ~0 for
// every vertex; the tests use it as an invariant.
func Balance(g *graph.Graph, r *Result, id string) float64 {
	sum := 0.0
	for _, j := range g.InEdges(id) {
		sum += r.Flow[j]
	}
	for _, j := range g.OutEdges(id) {
		sum -= r.Flow[j] / (1 - g.Edges[j].Loss)
	}
	i := g.VertexIndex(id)
	return sum + r.Gen[i] - r.Load[i]
}

// WelfareFromParts recomputes welfare from the primal values (revenues −
// generation costs − transport costs); the tests compare it to
// Result.Welfare.
func WelfareFromParts(g *graph.Graph, r *Result) float64 {
	w := 0.0
	for i, v := range g.Vertices {
		w += v.Price * r.Load[i]
		w -= v.SupplyCost * r.Gen[i]
	}
	for j, e := range g.Edges {
		w -= e.Cost * r.Flow[j]
	}
	return w
}

func dispatch(t *testing.T, g *graph.Graph) *Result {
	t.Helper()
	r, err := Dispatch(g)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	return r
}

func TestChainDispatch(t *testing.T) {
	g := simpleChain()
	r := dispatch(t, g)
	// Serving the full 80 units of demand is profitable:
	// revenue 800; delivered 80 requires 80/0.95 ≈ 84.21 at hub.
	if !approx(vertex(g, r.Load, "load"), 80, eps) {
		t.Fatalf("load = %v, want 80", vertex(g, r.Load, "load"))
	}
	wantDraw := 80 / 0.95
	if !approx(edge(g, r.Flow, "h-l"), 80, eps) {
		t.Fatalf("flow h-l = %v, want 80 (delivered)", edge(g, r.Flow, "h-l"))
	}
	if !approx(edge(g, r.Flow, "g-h"), wantDraw, eps) {
		t.Fatalf("flow g-h = %v, want %v", edge(g, r.Flow, "g-h"), wantDraw)
	}
	if !approx(vertex(g, r.Gen, "gen"), wantDraw, eps) {
		t.Fatalf("gen = %v, want %v", vertex(g, r.Gen, "gen"), wantDraw)
	}
	wantW := 80*10 - wantDraw*2 - wantDraw*0.1 - 80*0.2
	if !approx(r.Welfare, wantW, 1e-6) {
		t.Fatalf("welfare = %v, want %v", r.Welfare, wantW)
	}
	if !approx(WelfareFromParts(g, r), r.Welfare, 1e-6) {
		t.Fatalf("welfare parts mismatch: %v vs %v", WelfareFromParts(g, r), r.Welfare)
	}
}

func TestConservationInvariant(t *testing.T) {
	g := simpleChain()
	r := dispatch(t, g)
	for _, v := range g.Vertices {
		if bal := Balance(g, r, v.ID); math.Abs(bal) > 1e-8 {
			t.Errorf("balance at %s = %v", v.ID, bal)
		}
	}
}

func TestNodalPrices(t *testing.T) {
	g := simpleChain()
	r := dispatch(t, g)
	// Uncongested: λ(gen) = marginal production cost at the margin = 2.
	// λ(hub) = (2+0.1) (one more unit at hub saves that much drawing).
	// λ(load) = (λ(hub)+0.2... careful with loss: a unit appearing at
	// load substitutes delivery of 1 unit, which saves drawing 1/0.95 at
	// hub plus the edge cost: λ(load) = λ(hub)/0.95 + 0.2.
	if !approx(vertex(g, r.Price, "gen"), 2, 1e-6) {
		t.Errorf("λ(gen) = %v, want 2", vertex(g, r.Price, "gen"))
	}
	if !approx(vertex(g, r.Price, "hub"), 2.1, 1e-6) {
		t.Errorf("λ(hub) = %v, want 2.1", vertex(g, r.Price, "hub"))
	}
	wantLoad := 2.1/0.95 + 0.2
	if !approx(vertex(g, r.Price, "load"), wantLoad, 1e-6) {
		t.Errorf("λ(load) = %v, want %v", vertex(g, r.Price, "load"), wantLoad)
	}
}

func TestCongestionRent(t *testing.T) {
	// Two generators, cheap one behind a congested line.
	g := graph.New("cong")
	g.MustAddVertex(graph.Vertex{ID: "cheap", Supply: 100, SupplyCost: 1})
	g.MustAddVertex(graph.Vertex{ID: "dear", Supply: 100, SupplyCost: 5})
	g.MustAddVertex(graph.Vertex{ID: "city", Demand: 60, Price: 20})
	g.MustAddEdge(graph.Edge{ID: "c1", From: "cheap", To: "city", Capacity: 30})
	g.MustAddEdge(graph.Edge{ID: "c2", From: "dear", To: "city", Capacity: 100})
	r := dispatch(t, g)
	if !approx(edge(g, r.Flow, "c1"), 30, eps) || !approx(edge(g, r.Flow, "c2"), 30, eps) {
		t.Fatalf("flows = %v / %v, want 30/30", edge(g, r.Flow, "c1"), edge(g, r.Flow, "c2"))
	}
	// Congested line c1 earns rent = λ(city) − λ(cheap) = 5 − 1 = 4.
	if !approx(edge(g, r.CapacityRent, "c1"), 4, 1e-6) {
		t.Errorf("rent(c1) = %v, want 4", edge(g, r.CapacityRent, "c1"))
	}
	if !approx(vertex(g, r.Price, "city"), 5, 1e-6) {
		t.Errorf("λ(city) = %v, want 5 (marginal generator)", vertex(g, r.Price, "city"))
	}
}

func TestUnprofitableDemandUnserved(t *testing.T) {
	// Production cost above consumer price → dispatch nothing.
	g := graph.New("unprofitable")
	g.MustAddVertex(graph.Vertex{ID: "g", Supply: 50, SupplyCost: 30})
	g.MustAddVertex(graph.Vertex{ID: "l", Demand: 50, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "e", From: "g", To: "l", Capacity: 50})
	r := dispatch(t, g)
	if r.Welfare != 0 || r.Served() != 0 {
		t.Fatalf("welfare=%v served=%v, want 0,0", r.Welfare, r.Served())
	}
}

func TestZeroCapacityEdgeBlocksFlow(t *testing.T) {
	g := simpleChain()
	g.Edge("h-l").Capacity = 0
	r := dispatch(t, g)
	if edge(g, r.Flow, "h-l") != 0 || r.Served() != 0 {
		t.Fatalf("outaged edge still flows: %v served %v", edge(g, r.Flow, "h-l"), r.Served())
	}
}

func TestValidationPropagates(t *testing.T) {
	g := simpleChain()
	g.Edges[0].Loss = 1.5
	if _, err := Dispatch(g); err == nil {
		t.Fatal("invalid graph accepted")
	}
}

func TestParallelPathsPreferCheaper(t *testing.T) {
	g := graph.New("par")
	g.MustAddVertex(graph.Vertex{ID: "s", Supply: 100, SupplyCost: 1})
	g.MustAddVertex(graph.Vertex{ID: "d", Demand: 50, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "cheap", From: "s", To: "d", Capacity: 40, Cost: 0.5})
	g.MustAddEdge(graph.Edge{ID: "dear", From: "s", To: "d", Capacity: 40, Cost: 2})
	r := dispatch(t, g)
	if !approx(edge(g, r.Flow, "cheap"), 40, eps) {
		t.Errorf("cheap path flow = %v, want 40 (saturated first)", edge(g, r.Flow, "cheap"))
	}
	if !approx(edge(g, r.Flow, "dear"), 10, eps) {
		t.Errorf("dear path flow = %v, want 10 (remainder)", edge(g, r.Flow, "dear"))
	}
}

func TestLossyCycleNoFreeEnergy(t *testing.T) {
	// A cycle of lossy edges with negative cost must not create energy or
	// spin flow (welfare from spinning would be negative; LP keeps 0).
	g := graph.New("cycle")
	g.MustAddVertex(graph.Vertex{ID: "a"})
	g.MustAddVertex(graph.Vertex{ID: "b"})
	g.MustAddEdge(graph.Edge{ID: "ab", From: "a", To: "b", Capacity: 10, Loss: 0.1, Cost: -0.01})
	g.MustAddEdge(graph.Edge{ID: "ba", From: "b", To: "a", Capacity: 10, Loss: 0.1, Cost: -0.01})
	r := dispatch(t, g)
	if edge(g, r.Flow, "ab") != 0 || edge(g, r.Flow, "ba") != 0 {
		t.Fatalf("lossy cycle spun: %v %v", edge(g, r.Flow, "ab"), edge(g, r.Flow, "ba"))
	}
}

func TestSpareCapacityFraction(t *testing.T) {
	g := simpleChain()
	r := dispatch(t, g)
	want := 1 - (80/0.95)/100
	if got := SpareCapacityFraction(g, r); !approx(got, want, 1e-9) {
		t.Fatalf("spare = %v, want %v", got, want)
	}
	empty := graph.New("none")
	empty.MustAddVertex(graph.Vertex{ID: "x"})
	r2 := dispatch(t, empty)
	if SpareCapacityFraction(empty, r2) != 0 {
		t.Fatal("zero-supply spare capacity should be 0")
	}
}

// Property: on random two-level star networks, (1) dispatch conserves energy
// at every vertex, (2) welfare is nonnegative (zero flow is always allowed),
// (3) welfare equals its recomputation from parts, and (4) λ decomposition
// of welfare holds: Σ_v λ(v)·(load−gen) + Σ producer/consumer/transport
// surpluses is consistent (checked via WelfareFromParts identity).
func TestQuickDispatchInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New("rand")
		nGen := 1 + rng.Intn(3)
		nLoad := 1 + rng.Intn(3)
		g.MustAddVertex(graph.Vertex{ID: "hub"})
		for i := 0; i < nGen; i++ {
			id := "g" + string(rune('0'+i))
			g.MustAddVertex(graph.Vertex{ID: id, Supply: 10 + rng.Float64()*90, SupplyCost: 1 + rng.Float64()*5})
			g.MustAddEdge(graph.Edge{ID: "e" + id, From: id, To: "hub",
				Capacity: rng.Float64() * 100, Loss: rng.Float64() * 0.2, Cost: rng.Float64()})
		}
		for i := 0; i < nLoad; i++ {
			id := "l" + string(rune('0'+i))
			g.MustAddVertex(graph.Vertex{ID: id, Demand: 10 + rng.Float64()*90, Price: 2 + rng.Float64()*10})
			g.MustAddEdge(graph.Edge{ID: "e" + id, From: "hub", To: id,
				Capacity: rng.Float64() * 100, Loss: rng.Float64() * 0.2, Cost: rng.Float64()})
		}
		r, err := Dispatch(g)
		if err != nil {
			return false
		}
		if r.Welfare < -1e-7 {
			return false
		}
		for _, v := range g.Vertices {
			if math.Abs(Balance(g, r, v.ID)) > 1e-7 {
				return false
			}
		}
		if math.Abs(WelfareFromParts(g, r)-r.Welfare) > 1e-6*(1+math.Abs(r.Welfare)) {
			return false
		}
		// Flows within capacity.
		for j, e := range g.Edges {
			if r.Flow[j] < -1e-9 || r.Flow[j] > e.Capacity+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
