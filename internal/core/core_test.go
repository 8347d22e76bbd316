package core

import (
	"math"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/adversary"
	"cpsguard/internal/graph"
	"cpsguard/internal/rng"
)

// testSystem is a small but strategically interesting network: two supply
// chains into one city plus a side market, owned by distinct actors.
func testSystem() *graph.Graph {
	g := graph.New("core-test")
	g.MustAddVertex(graph.Vertex{ID: "gen1", Supply: 100, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "gen2", Supply: 100, SupplyCost: 3})
	g.MustAddVertex(graph.Vertex{ID: "hub"})
	g.MustAddVertex(graph.Vertex{ID: "city", Demand: 120, Price: 10})
	g.MustAddVertex(graph.Vertex{ID: "town", Demand: 30, Price: 8})
	g.MustAddEdge(graph.Edge{ID: "e1", From: "gen1", To: "hub", Capacity: 80, Cost: 0.1})
	g.MustAddEdge(graph.Edge{ID: "e2", From: "gen2", To: "hub", Capacity: 80, Cost: 0.1})
	g.MustAddEdge(graph.Edge{ID: "ecity", From: "hub", To: "city", Capacity: 130, Cost: 0.2})
	g.MustAddEdge(graph.Edge{ID: "etown", From: "hub", To: "town", Capacity: 40, Cost: 0.2})
	return g
}

func scenario(n int) *Scenario {
	s := NewScenario(testSystem(), n, 7)
	return s
}

func TestNewScenarioDefaults(t *testing.T) {
	s := scenario(2)
	if len(s.Ownership) != 4 {
		t.Fatalf("ownership covers %d assets, want 4", len(s.Ownership))
	}
	if len(s.targets()) != 4 {
		t.Fatalf("targets = %d, want 4", len(s.targets()))
	}
	costs := s.defenseCosts()
	if len(costs) != 4 || costs["e1"] != 1 {
		t.Fatalf("defense costs = %v", costs)
	}
}

func TestTruthCached(t *testing.T) {
	s := scenario(2)
	m1, err := s.Truth()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.Truth()
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("Truth not cached")
	}
}

func TestViewZeroSigmaIsTruth(t *testing.T) {
	s := scenario(3)
	truth, _ := s.Truth()
	v, err := s.View(0, GraphNoise, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if v != truth {
		t.Fatal("σ=0 view should be the truth matrix itself")
	}
}

func TestViewModes(t *testing.T) {
	s := scenario(3)
	truth, _ := s.Truth()
	vm, err := s.View(0.3, MatrixNoise, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	vg, err := s.View(0.3, GraphNoise, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Both must differ from truth somewhere (noise applied).
	diffM, diffG := false, false
	for _, a := range truth.Actors {
		for _, tg := range truth.Targets {
			if vm.Get(a, tg) != truth.Get(a, tg) {
				diffM = true
			}
			if vg.Get(a, tg) != truth.Get(a, tg) {
				diffG = true
			}
		}
	}
	if !diffM || !diffG {
		t.Fatalf("noise not applied: matrix=%v graph=%v", diffM, diffG)
	}
	if _, err := s.View(0.3, NoiseMode(9), rng.New(3)); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestPlayRoundPerfectKnowledge(t *testing.T) {
	s := scenario(2)
	res, err := PlayRound(s, GameConfig{
		AttackBudget:          1,
		DefenseBudgetPerActor: 2,
		Seed:                  11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With σ=0 everywhere the SA's anticipated and undefended realized
	// profits coincide.
	if math.Abs(res.Anticipated-res.RealizedUndefended) > 1e-9 {
		t.Fatalf("perfect knowledge: anticipated %v ≠ realized %v",
			res.Anticipated, res.RealizedUndefended)
	}
	if res.Effectiveness < 0 {
		t.Fatalf("defense effectiveness negative: %v", res.Effectiveness)
	}
	if res.RealizedDefended > res.RealizedUndefended {
		t.Fatal("defense increased the adversary's profit")
	}
}

func TestPlayRoundNoisyAttackerUnderperforms(t *testing.T) {
	s := scenario(3)
	agg := 0.0
	const rounds = 8
	for i := 0; i < rounds; i++ {
		res, err := PlayRound(s, GameConfig{
			AttackBudget:          2,
			AttackerSigma:         1.2,
			NoiseMode:             MatrixNoise,
			DefenseBudgetPerActor: 0, // isolate the attacker effect
			Seed:                  uint64(100 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		agg += res.Anticipated - res.RealizedUndefended
	}
	// On average the noisy attacker anticipates more than it realizes.
	if agg/rounds <= 0 {
		t.Fatalf("noisy attacker not overconfident on average: %v", agg/rounds)
	}
}

func TestPlayRoundDefenseReducesProfit(t *testing.T) {
	s := scenario(2)
	res, err := PlayRound(s, GameConfig{
		AttackBudget:          2,
		DefenseBudgetPerActor: 4,
		PaSamples:             8,
		Seed:                  21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Targets) > 0 && len(res.Defended) == 0 {
		t.Log("no defense chosen; acceptable if attacks are harmless, checking")
	}
	if res.RealizedDefended > res.RealizedUndefended+1e-9 {
		t.Fatal("defended profit exceeds undefended")
	}
}

func TestPlayRoundCollaborative(t *testing.T) {
	s := scenario(3)
	res, err := PlayRound(s, GameConfig{
		AttackBudget:          2,
		DefenseBudgetPerActor: 1,
		Collaborative:         true,
		PaSamples:             8,
		Seed:                  31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Effectiveness < 0 {
		t.Fatalf("collaborative effectiveness negative: %v", res.Effectiveness)
	}
}

func TestPlayRoundDeterministic(t *testing.T) {
	cfg := GameConfig{
		AttackBudget: 2, AttackerSigma: 0.4, DefenderSigma: 0.3,
		SpeculatedSigma: 0.2, DefenseBudgetPerActor: 2,
		NoiseMode: MatrixNoise, PaSamples: 8, Seed: 77,
	}
	r1, err := PlayRound(scenario(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := PlayRound(scenario(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Anticipated != r2.Anticipated ||
		r1.RealizedUndefended != r2.RealizedUndefended ||
		r1.RealizedDefended != r2.RealizedDefended {
		t.Fatalf("rounds differ: %+v vs %+v", r1, r2)
	}
}

func TestPlayRoundNilScenario(t *testing.T) {
	if _, err := PlayRound(nil, GameConfig{}); err != ErrNilScenario {
		t.Fatalf("err = %v, want ErrNilScenario", err)
	}
	if _, err := PlayRound(&Scenario{}, GameConfig{}); err != ErrNilScenario {
		t.Fatalf("err = %v, want ErrNilScenario", err)
	}
}

func TestScenarioWithExplicitEconomics(t *testing.T) {
	s := scenario(2)
	s.Targets = adversary.UniformTargets([]string{"e1", "e2"}, 2, 0.5)
	s.DefenseCosts = nil // derive from targets
	costs := s.defenseCosts()
	if len(costs) != 2 {
		t.Fatalf("costs = %v, want 2 entries", costs)
	}
	s.ProfitModel = actors.LMPDivision{}
	if _, err := s.Truth(); err != nil {
		t.Fatal(err)
	}
	if len(s.truth.Targets) != 2 {
		t.Fatalf("truth targets = %v", s.truth.Targets)
	}
}

func TestNoiseModeString(t *testing.T) {
	if GraphNoise.String() != "graph" || MatrixNoise.String() != "matrix" {
		t.Fatal("mode strings wrong")
	}
	if NoiseMode(7).String() == "" {
		t.Fatal("unknown mode should render")
	}
}

func TestScenarioDefaultTargetsWhenUnset(t *testing.T) {
	// A hand-built scenario without Targets derives uniform economics
	// from the graph's assets.
	s := &Scenario{Graph: testSystem(), Ownership: actors.Ownership{"e1": "A"}}
	if got := len(s.targets()); got != 4 {
		t.Fatalf("derived targets = %d, want 4", got)
	}
	if got := len(s.targetIDs()); got != 4 {
		t.Fatalf("derived target IDs = %d, want 4", got)
	}
	if _, err := s.Truth(); err != nil {
		t.Fatal(err)
	}
}
