package impact

import (
	"math"
	"slices"
	"strings"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/graph"
	"cpsguard/internal/parallel"
	"cpsguard/internal/rng"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/westgrid"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// duopoly: two parallel supply chains serving one city. Attacking one chain
// benefits the other's owner — the paper's competitor-elimination scenario.
func duopoly() (*graph.Graph, actors.Ownership) {
	g := graph.New("duopoly")
	g.MustAddVertex(graph.Vertex{ID: "gen1", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "gen2", Supply: 100, SupplyCost: 3})
	g.MustAddVertex(graph.Vertex{ID: "city", Demand: 120, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "chain1", From: "gen1", To: "city", Capacity: 80})
	g.MustAddEdge(graph.Edge{ID: "chain2", From: "gen2", To: "city", Capacity: 80})
	o := actors.Ownership{"chain1": "A", "chain2": "B"}
	return g, o
}

func TestFieldString(t *testing.T) {
	if Capacity.String() != "capacity" || Cost.String() != "cost" || Loss.String() != "loss" {
		t.Fatal("Field strings wrong")
	}
	if !strings.Contains(Field(9).String(), "9") {
		t.Fatal("unknown field should render its number")
	}
}

func TestApply(t *testing.T) {
	g, _ := duopoly()
	gp, err := Apply(g, Outage("chain1"))
	if err != nil {
		t.Fatal(err)
	}
	if gp.Edge("chain1").Capacity != 0 {
		t.Fatal("outage not applied")
	}
	if g.Edge("chain1").Capacity != 80 {
		t.Fatal("Apply mutated input")
	}
	if _, err := Apply(g, Perturbation{EdgeID: "nope", Field: Capacity}); err == nil {
		t.Fatal("unknown edge accepted")
	}
	if _, err := Apply(g, Perturbation{EdgeID: "chain1", Field: Field(99), Value: 1}); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Apply(g, Perturbation{EdgeID: "chain1", Field: Loss, Value: 2}); err == nil {
		t.Fatal("invalid loss accepted")
	}
	gp2, err := Apply(g, Perturbation{EdgeID: "chain2", Field: Cost, Value: 1.5},
		Perturbation{EdgeID: "chain1", Field: Loss, Value: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if gp2.Edge("chain2").Cost != 1.5 || gp2.Edge("chain1").Loss != 0.25 {
		t.Fatal("multi-perturbation failed")
	}
}

func TestCompetitorElimination(t *testing.T) {
	g, o := duopoly()
	an := &Analysis{Graph: g, Ownership: o}
	deltas, dw, err := an.Of(Outage("chain1"))
	if err != nil {
		t.Fatal(err)
	}
	// System as a whole loses (welfare drop).
	if dw >= -1e-6 {
		t.Fatalf("welfare delta = %v, want negative", dw)
	}
	// A (attacked owner) loses, B gains (monopoly at the margin):
	// pre-attack λ(city)=3 (marginal gen2); post-attack demand exceeds
	// remaining capacity → λ(city)=10, B pockets the scarcity rent.
	if deltas["A"] >= 0 {
		t.Fatalf("attacked owner gained: %v", deltas)
	}
	if deltas["B"] <= 0 {
		t.Fatalf("competitor did not gain: %v", deltas)
	}
	// Zero-sum against welfare: Σ_a IM[a,t] = Δwelfare.
	sum := 0.0
	for _, v := range deltas {
		sum += v
	}
	if !approx(sum, dw, 1e-6*(1+math.Abs(dw))) {
		t.Fatalf("Σ impacts %v ≠ Δwelfare %v", sum, dw)
	}
}

func TestBaselineProfits(t *testing.T) {
	g, o := duopoly()
	an := &Analysis{Graph: g, Ownership: o}
	p, r, err := an.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p.Total(), r.Welfare, 1e-6*(1+r.Welfare)) {
		t.Fatalf("baseline profits %v don't sum to welfare %v", p.Total(), r.Welfare)
	}
}

func TestComputeMatrixAllTargets(t *testing.T) {
	g, o := duopoly()
	an := &Analysis{Graph: g, Ownership: o}
	m, err := an.ComputeMatrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Targets) != 2 {
		t.Fatalf("targets = %v", m.Targets)
	}
	if m.BaselineWelfare <= 0 {
		t.Fatal("baseline welfare should be positive")
	}
	// Each column must be zero-sum against its welfare delta.
	for j, target := range m.Targets {
		sum := 0.0
		for _, a := range m.Actors {
			sum += m.Get(a, target)
		}
		if !approx(sum, m.WelfareDelta[j], 1e-6*(1+math.Abs(m.WelfareDelta[j]))) {
			t.Errorf("target %s: Σ=%v Δw=%v", target, sum, m.WelfareDelta[j])
		}
		if m.WelfareDelta[j] > 1e-6 {
			t.Errorf("target %s: welfare increased under attack (%v)", target, m.WelfareDelta[j])
		}
	}
	gain, loss := m.GainLoss()
	if gain < 0 || loss > 0 {
		t.Fatalf("gain=%v loss=%v signs wrong", gain, loss)
	}
	if gain == 0 {
		t.Fatal("duopoly attack should produce a gainer")
	}
}

func TestMatrixAccessors(t *testing.T) {
	g, o := duopoly()
	an := &Analysis{Graph: g, Ownership: o}
	m, err := an.ComputeMatrix([]string{"chain1"})
	if err != nil {
		t.Fatal(err)
	}
	i, j := m.Row("A"), m.Col("chain1")
	if i < 0 || j < 0 || !m.Present(i, j) || m.Get("A", "chain1") != m.At(i, j) {
		t.Fatal("Get disagrees with At")
	}
	if m.Get("unknown-actor", "chain1") != 0 || m.Row("unknown-actor") != -1 {
		t.Fatal("unknown actor should read 0")
	}
	if m.Get("A", "chain2") != 0 || m.Col("chain2") != -1 {
		t.Fatal("a target outside the matrix should read 0")
	}
}

// TestComputeMatrixSortsAndRejectsRepeats: the matrix lists its targets
// sorted whatever the caller's order, and a repeated target, which would
// take two columns and two noise draws, is an error rather than silently
// collapsed.
func TestComputeMatrixSortsAndRejectsRepeats(t *testing.T) {
	g, o := duopoly()
	an := &Analysis{Graph: g, Ownership: o}
	m, err := an.ComputeMatrix([]string{"chain2", "chain1"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.Targets, []string{"chain1", "chain2"}) {
		t.Fatalf("targets = %v, want sorted", m.Targets)
	}
	if _, err := an.ComputeMatrix([]string{"chain1", "chain2", "chain1"}); err == nil {
		t.Fatal("repeated target accepted")
	}
}

func TestMatrixWithMoreActorsProducesMoreGain(t *testing.T) {
	// Sanity version of Fig. 2's driving intuition on a richer model:
	// with a single actor there is no gainer (all impacts ≤ 0); with
	// competing actors some positive impacts appear.
	g, _ := duopoly()
	mono := actors.Ownership{"chain1": "A", "chain2": "A"}
	an := &Analysis{Graph: g, Ownership: mono}
	m, err := an.ComputeMatrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	gain, _ := m.GainLoss()
	if gain > 1e-6 {
		t.Fatalf("monopoly ownership should never gain from attacks, gain=%v", gain)
	}
	duo := actors.Ownership{"chain1": "A", "chain2": "B"}
	an2 := &Analysis{Graph: g, Ownership: duo}
	m2, err := an2.ComputeMatrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	gain2, _ := m2.GainLoss()
	if gain2 <= gain {
		t.Fatalf("competition should raise attack gains: %v vs %v", gain2, gain)
	}
}

func TestAnalysisWithIterativeModel(t *testing.T) {
	g, o := duopoly()
	an := &Analysis{Graph: g, Ownership: o, Model: actors.IterativeDivision{}}
	_, dw, err := an.Of(Outage("chain2"))
	if err != nil {
		t.Fatal(err)
	}
	if dw >= 0 {
		t.Fatalf("welfare delta %v, want negative", dw)
	}
}

func TestMatrixDeterministic(t *testing.T) {
	// Random ownership + parallel matrix computation must be reproducible.
	g, _ := duopoly()
	o := actors.RandomOwnership(g, 2, rng.New(11))
	an := &Analysis{Graph: g, Ownership: o}
	m1, err := an.ComputeMatrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := an.ComputeMatrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range m1.Actors {
		for _, tg := range m1.Targets {
			if m1.Get(a, tg) != m2.Get(a, tg) {
				t.Fatalf("nondeterministic IM[%s][%s]", a, tg)
			}
		}
	}
}

// TestMatrixWorkersBitIdentical builds the stressed westgrid's outage matrix
// on one worker and on four sharing one compiled dispatch LP, and requires
// every entry to match bit for bit: the pooled graph clones and the shared
// problem may not leak state between concurrent re-solves.
func TestMatrixWorkersBitIdentical(t *testing.T) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	o := actors.RandomOwnership(g, 6, rng.New(5))
	matrix := func(workers int) *Matrix {
		an := &Analysis{Graph: g, Ownership: o, Parallel: parallel.Options{Workers: workers}}
		m, err := an.ComputeMatrix(nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m4 := matrix(1), matrix(4)
	if m1.BaselineWelfare != m4.BaselineWelfare {
		t.Fatalf("baseline welfare %v vs %v", m1.BaselineWelfare, m4.BaselineWelfare)
	}
	for j, tg := range m1.Targets {
		if m1.WelfareDelta[j] != m4.WelfareDelta[j] {
			t.Errorf("welfare delta of %s: %v on one worker, %v on four", tg, m1.WelfareDelta[j], m4.WelfareDelta[j])
		}
		for _, a := range m1.Actors {
			if m1.Get(a, tg) != m4.Get(a, tg) {
				t.Errorf("IM[%s][%s]: %v on one worker, %v on four", a, tg, m1.Get(a, tg), m4.Get(a, tg))
			}
		}
	}
	if len(m1.Actors) != len(m4.Actors) {
		t.Fatalf("actors %v vs %v", m1.Actors, m4.Actors)
	}
}

// TestOutageHandsTieOn cuts the dominant inbound edge of a load: its retail
// surplus must follow the tie to the next-largest inbound edge of the
// edited graph, not stay with the owner of the cut one.
func TestOutageHandsTieOn(t *testing.T) {
	g := graph.New("tie")
	g.MustAddVertex(graph.Vertex{ID: "gen1", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "gen2", Supply: 100, SupplyCost: 3})
	g.MustAddVertex(graph.Vertex{ID: "city", Demand: 50, Price: 10})
	g.MustAddEdge(graph.Edge{ID: "big", From: "gen1", To: "city", Capacity: 80})
	g.MustAddEdge(graph.Edge{ID: "small", From: "gen2", To: "city", Capacity: 60})
	an := &Analysis{Graph: g, Ownership: actors.Ownership{"big": "A", "small": "B"}}
	deltas, _, err := an.Of(Outage("big"))
	if err != nil {
		t.Fatal(err)
	}
	// Before: λ(city) = 2 and A holds the 50·(10−2) retail surplus. After:
	// λ(city) = 3 and the 50·(10−3) surplus belongs to B, the new tie.
	if !approx(deltas["A"], -400, 1e-6) || !approx(deltas["B"], 350, 1e-6) {
		t.Fatalf("deltas = %v, want A −400, B +350", deltas)
	}
}

// TestCarries walks the carry rule's clauses on the duopoly, whose baseline
// runs chain1 at its capacity 80 and chain2 at 40 of 80: a carried set is
// priced without a solve (the impact.carried counter moves) and leaves
// welfare exactly unchanged, and every other set is re-solved.
func TestCarries(t *testing.T) {
	g, o := duopoly()
	an := &Analysis{Graph: g, Ownership: o}
	_, r0, err := an.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if r0.Flow[0] != 80 || r0.Flow[1] != 40 {
		t.Fatalf("baseline flows %v, want [80 40]", r0.Flow)
	}
	capacity := func(id string, v float64) Perturbation {
		return Perturbation{EdgeID: id, Field: Capacity, Value: v}
	}
	for _, tc := range []struct {
		name string
		ps   []Perturbation
		want bool
	}{
		{"no edit", nil, true},
		{"slack edge cut to its flow", []Perturbation{capacity("chain2", 40)}, true},
		{"slack edge cut below its flow", []Perturbation{capacity("chain2", 39)}, false},
		{"slack edge raised", []Perturbation{capacity("chain2", 200)}, true},
		{"held edge raised", []Perturbation{capacity("chain1", 100)}, false},
		{"held edge unchanged", []Perturbation{capacity("chain1", 80)}, true},
		{"held edge cut", []Perturbation{Outage("chain1")}, false},
		{"one clause fails", []Perturbation{capacity("chain2", 200), Outage("chain1")}, false},
		{"cost edit", []Perturbation{{EdgeID: "chain2", Field: Cost, Value: 0}}, false},
		{"unknown edge", []Perturbation{Outage("nope")}, false},
	} {
		if got := Carries(g, tc.ps, r0.Flow); got != tc.want {
			t.Errorf("%s: Carries = %v, want %v", tc.name, got, tc.want)
		}
		if tc.name == "unknown edge" {
			continue
		}
		before := mCarried.Value()
		_, dw, err := an.Of(tc.ps...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := int64(0)
		if tc.want {
			want = 1
		}
		if carried := mCarried.Value() - before; carried != want {
			t.Errorf("%s: impact.carried moved by %d, want %d", tc.name, carried, want)
		}
		if tc.want && dw != 0 {
			t.Errorf("%s: carried set changed welfare by %v", tc.name, dw)
		}
	}
	if Carries(g, []Perturbation{capacity("chain2", 80)}, []float64{0, math.Inf(1)}) {
		t.Error("an edge of unknown positive flow (+Inf) was carried")
	}
}

// TestSaltPinsEdgeOrder: cache entries hold profits laid out by the writer's
// actor index, which follows edge order. Swapping two edges of a graph moves
// that layout, so it must move the salt too: the swapped analysis reads
// nothing the original wrote to a shared cache.
func TestSaltPinsEdgeOrder(t *testing.T) {
	g := westgrid.Build(westgrid.Options{Stress: true})
	own := actors.RandomOwnership(g, 6, rng.New(2))
	j := 1
	for own[g.Edges[j].ID] == own[g.Edges[0].ID] {
		j++
	}
	swapped := graph.New(g.Name)
	for _, v := range g.Vertices {
		swapped.MustAddVertex(v)
	}
	for i := range g.Edges {
		switch i {
		case 0:
			swapped.MustAddEdge(g.Edges[j])
		case j:
			swapped.MustAddEdge(g.Edges[0])
		default:
			swapped.MustAddEdge(g.Edges[i])
		}
	}

	cache := solvecache.New(64)
	a := &Analysis{Graph: g, Ownership: own, Cache: cache}
	b := &Analysis{Graph: swapped, Ownership: own, Cache: cache}
	ca, err := a.compile()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.compile()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ca.ix.Actors, ",") == strings.Join(cb.ix.Actors, ",") {
		t.Fatalf("swapping edges 0 and %d left the actor layout %v unchanged", j, ca.ix.Actors)
	}
	if ca.salt() == cb.salt() {
		t.Fatal("swapping two edges left the analysis salt unchanged")
	}

	cut := Outage(g.Edges[0].ID)
	for _, an := range []*Analysis{a, b} {
		before := cache.Stats()
		if _, err := an.Outcome(); err != nil {
			t.Fatal(err)
		}
		if _, err := an.Outcome(cut); err != nil {
			t.Fatal(err)
		}
		if st := cache.Stats(); st.Hits != before.Hits || st.Misses != before.Misses+2 {
			t.Errorf("hits %d → %d, misses %d → %d: an analysis read an entry of another layout",
				before.Hits, st.Hits, before.Misses, st.Misses)
		}
	}
}
