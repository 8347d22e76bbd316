package actors

import (
	"math"
	"testing"
	"testing/quick"

	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// chain builds gen →e1→ hub →e2→ load with optional congestion on e2.
func chain(capE2 float64) *graph.Graph {
	g := graph.New("chain")
	g.MustAddVertex(graph.Vertex{ID: "gen", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "hub"})
	g.MustAddVertex(graph.Vertex{ID: "load", Demand: 80, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "e1", From: "gen", To: "hub", Capacity: 100})
	g.MustAddEdge(graph.Edge{ID: "e2", From: "hub", To: "load", Capacity: capE2})
	return g
}

func dispatch(t *testing.T, g *graph.Graph) *flow.Result {
	t.Helper()
	r, err := flow.Dispatch(g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOwnershipHelpers(t *testing.T) {
	o := Ownership{"e1": "A00", "e2": "A01", "e3": "A00"}
	if got := o.Actors(); len(got) != 2 || got[0] != "A00" || got[1] != "A01" {
		t.Fatalf("Actors = %v", got)
	}
	if got := o.Assets("A00"); len(got) != 2 || got[0] != "e1" || got[1] != "e3" {
		t.Fatalf("Assets = %v", got)
	}
	if ActorName(3) != "A03" {
		t.Fatalf("ActorName = %q", ActorName(3))
	}
}

func TestRandomOwnershipCoversAllAssets(t *testing.T) {
	g := chain(90)
	o := RandomOwnership(g, 4, rng.New(1))
	if len(o) != 2 {
		t.Fatalf("ownership size = %d, want 2", len(o))
	}
	for _, id := range g.AssetIDs() {
		a, ok := o[id]
		if !ok || a == "" {
			t.Fatalf("asset %s unassigned", id)
		}
	}
}

func TestRandomOwnershipUniform(t *testing.T) {
	g := graph.New("many")
	g.MustAddVertex(graph.Vertex{ID: "a"})
	g.MustAddVertex(graph.Vertex{ID: "b"})
	for i := 0; i < 400; i++ {
		g.MustAddEdge(graph.Edge{ID: "e" + string(rune('A'+i/26%26)) + string(rune('a'+i%26)) + string(rune('0'+i/676)), From: "a", To: "b", Capacity: 1})
	}
	counts := map[string]int{}
	o := RandomOwnership(g, 4, rng.New(2))
	for _, a := range o {
		counts[a]++
	}
	for a, c := range counts {
		if c < 60 || c > 140 {
			t.Fatalf("actor %s owns %d of 400 assets (expect ≈100)", a, c)
		}
	}
}

func TestLMPDivisionSumsToWelfare(t *testing.T) {
	g := chain(70) // congested delivery edge
	r := dispatch(t, g)
	o := Ownership{"e1": "A00", "e2": "A01"}
	p, err := Divide(LMPDivision{}, g, r, o)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p.Total(), r.Welfare, 1e-6*(1+math.Abs(r.Welfare))) {
		t.Fatalf("profits sum %v ≠ welfare %v (profits %v)", p.Total(), r.Welfare, p)
	}
}

func TestLMPCongestionRentGoesToCongestedEdgeOwner(t *testing.T) {
	// Two generators: cheap behind a 30-unit line, dear unconstrained.
	g := graph.New("cong")
	g.MustAddVertex(graph.Vertex{ID: "cheap", Supply: 100, SupplyCost: 1})
	g.MustAddVertex(graph.Vertex{ID: "dear", Supply: 100, SupplyCost: 5})
	g.MustAddVertex(graph.Vertex{ID: "city", Demand: 60, Price: 20})
	g.MustAddEdge(graph.Edge{ID: "line", From: "cheap", To: "city", Capacity: 30})
	g.MustAddEdge(graph.Edge{ID: "bigline", From: "dear", To: "city", Capacity: 100})
	r := dispatch(t, g)
	o := Ownership{"line": "L", "bigline": "B"}
	p, err := Divide(LMPDivision{}, g, r, o)
	if err != nil {
		t.Fatal(err)
	}
	// λ(city)=5 (marginal dear gen), λ(cheap)=1 → line owner earns
	// 30·(5−1)=120 congestion rent; cheap gen surplus is 0 (λ=cost at
	// its bus); L also owns the cheap generation tie... the line is the
	// only outbound edge of "cheap", so gen surplus (0) goes to L too.
	if !approx(p["L"], 120, 1e-6) {
		t.Fatalf("line owner profit = %v, want 120 (got %v)", p["L"], p)
	}
	// B owns the marginal generator's tie (surplus 0), the uncongested
	// big line (λ differential 0), and the consumer tie at city — the
	// max-capacity inbound edge — which carries the consumer surplus
	// 60·(20−5)=900.
	if !approx(p["B"], 900, 1e-6) {
		t.Fatalf("bigline owner profit = %v, want 900 (consumer surplus)", p["B"])
	}
}

func TestLMPUnownedAssetsSettleToMarket(t *testing.T) {
	g := chain(70)
	r := dispatch(t, g)
	p, err := Divide(LMPDivision{}, g, r, Ownership{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p[MarketActor], r.Welfare, 1e-6*(1+r.Welfare)) {
		t.Fatalf("market should hold all welfare, got %v of %v", p[MarketActor], r.Welfare)
	}
}

func TestIterativeDivisionSumsToWelfare(t *testing.T) {
	g := chain(70)
	r := dispatch(t, g)
	o := Ownership{"e1": "A00", "e2": "A01"}
	p, err := Divide(IterativeDivision{}, g, r, o)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p.Total(), r.Welfare, 1e-6*(1+math.Abs(r.Welfare))) {
		t.Fatalf("iterative profits sum %v ≠ welfare %v (%v)", p.Total(), r.Welfare, p)
	}
}

func TestSeriesActorsShareRent(t *testing.T) {
	// Three actors in series: gen—A—B—C—load, tight capacity everywhere.
	g := graph.New("series")
	g.MustAddVertex(graph.Vertex{ID: "gen", Supply: 100, SupplyCost: 1})
	g.MustAddVertex(graph.Vertex{ID: "h1"})
	g.MustAddVertex(graph.Vertex{ID: "h2"})
	g.MustAddVertex(graph.Vertex{ID: "load", Demand: 50, Price: 11})
	g.MustAddEdge(graph.Edge{ID: "sA", From: "gen", To: "h1", Capacity: 50})
	g.MustAddEdge(graph.Edge{ID: "sB", From: "h1", To: "h2", Capacity: 50})
	g.MustAddEdge(graph.Edge{ID: "sC", From: "h2", To: "load", Capacity: 50})
	r := dispatch(t, g)
	o := Ownership{"sA": "A", "sB": "B", "sC": "C"}
	p, err := Divide(IterativeDivision{}, g, r, o)
	if err != nil {
		t.Fatal(err)
	}
	// Chain rent: each probing actor sees the same downstream marginal
	// cost; after series normalization the three shares should be
	// roughly equal (paper: "roughly equal to 1/N") and sum to welfare.
	if !approx(p.Total(), r.Welfare, 1e-6*(1+r.Welfare)) {
		t.Fatalf("sum %v ≠ welfare %v", p.Total(), r.Welfare)
	}
	pa, pb, pc := p["A"], p["B"], p["C"]
	if pa <= 0 || pb <= 0 || pc <= 0 {
		t.Fatalf("series actors should all profit: %v", p)
	}
	max := math.Max(pa, math.Max(pb, pc))
	min := math.Min(pa, math.Min(pb, pc))
	if max > 3*min {
		t.Fatalf("series split too skewed: %v", p)
	}
}

func TestDivisionModelsAgreeOnTotal(t *testing.T) {
	g := chain(70)
	r := dispatch(t, g)
	o := Ownership{"e1": "X", "e2": "Y"}
	lmp, err := Divide(LMPDivision{}, g, r, o)
	if err != nil {
		t.Fatal(err)
	}
	iter, err := Divide(IterativeDivision{}, g, r, o)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(lmp.Total(), iter.Total(), 1e-6*(1+math.Abs(lmp.Total()))) {
		t.Fatalf("totals differ: lmp %v iter %v", lmp.Total(), iter.Total())
	}
}

func TestModelNames(t *testing.T) {
	if (LMPDivision{}).Name() != "lmp" || (IterativeDivision{}).Name() != "iterative" {
		t.Fatal("model names wrong")
	}
}

// Property: LMP division always sums to welfare, for random graphs and
// random ownership.
func TestQuickLMPSumsToWelfare(t *testing.T) {
	f := func(seed uint64) bool {
		rs := rng.New(seed)
		g := graph.New("q")
		g.MustAddVertex(graph.Vertex{ID: "hub"})
		n := 2 + rs.Intn(3)
		for i := 0; i < n; i++ {
			gid := "g" + string(rune('0'+i))
			lid := "l" + string(rune('0'+i))
			g.MustAddVertex(graph.Vertex{ID: gid, Supply: 20 + rs.Float64()*50, SupplyCost: 1 + rs.Float64()*4})
			g.MustAddVertex(graph.Vertex{ID: lid, Demand: 20 + rs.Float64()*50, Price: 3 + rs.Float64()*9})
			g.MustAddEdge(graph.Edge{ID: "eg" + gid, From: gid, To: "hub",
				Capacity: rs.Float64() * 80, Loss: rs.Float64() * 0.1, Cost: rs.Float64() * 0.5})
			g.MustAddEdge(graph.Edge{ID: "el" + lid, From: "hub", To: lid,
				Capacity: rs.Float64() * 80, Loss: rs.Float64() * 0.1, Cost: rs.Float64() * 0.5})
		}
		r, err := flow.Dispatch(g)
		if err != nil {
			return false
		}
		o := RandomOwnership(g, 1+rs.Intn(5), rs)
		p, err := Divide(LMPDivision{}, g, r, o)
		if err != nil {
			return false
		}
		return approx(p.Total(), r.Welfare, 1e-6*(1+math.Abs(r.Welfare)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestIterativeDivisionCustomDelta(t *testing.T) {
	g := chain(70)
	r := dispatch(t, g)
	o := Ownership{"e1": "A00", "e2": "A01"}
	p, err := Divide(IterativeDivision{Delta: 5}, g, r, o)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p.Total(), r.Welfare, 1e-6*(1+math.Abs(r.Welfare))) {
		t.Fatalf("custom-delta division broke the welfare identity: %v vs %v",
			p.Total(), r.Welfare)
	}
}
