package experiments

import (
	"strings"
	"testing"

	"cpsguard/internal/core"
	"cpsguard/internal/graph"
	"cpsguard/internal/stats"
	"cpsguard/internal/telemetry"
)

// miniGrid is a small competitive system so experiment tests run quickly:
// three generators of different costs feeding two cities through a shared
// hub, with a bypass line.
func miniGrid() *graph.Graph {
	g := graph.New("mini")
	g.MustAddVertex(graph.Vertex{ID: "g1", Supply: 120, SupplyCost: 2})
	g.MustAddVertex(graph.Vertex{ID: "g2", Supply: 120, SupplyCost: 3})
	g.MustAddVertex(graph.Vertex{ID: "g3", Supply: 120, SupplyCost: 5})
	g.MustAddVertex(graph.Vertex{ID: "hub"})
	g.MustAddVertex(graph.Vertex{ID: "cityA", Demand: 120, Price: 12})
	g.MustAddVertex(graph.Vertex{ID: "cityB", Demand: 80, Price: 11})
	g.MustAddEdge(graph.Edge{ID: "s1", From: "g1", To: "hub", Capacity: 90, Cost: 0.1})
	g.MustAddEdge(graph.Edge{ID: "s2", From: "g2", To: "hub", Capacity: 90, Cost: 0.1})
	g.MustAddEdge(graph.Edge{ID: "s3", From: "g3", To: "hub", Capacity: 90, Cost: 0.1})
	g.MustAddEdge(graph.Edge{ID: "dA", From: "hub", To: "cityA", Capacity: 130, Cost: 0.2})
	g.MustAddEdge(graph.Edge{ID: "dB", From: "hub", To: "cityB", Capacity: 90, Cost: 0.2})
	g.MustAddEdge(graph.Edge{ID: "bypass", From: "g1", To: "cityA", Capacity: 40, Cost: 0.4})
	return g
}

func fastCfg() Config {
	return Config{
		Graph:     miniGrid(),
		Trials:    4,
		Seed:      3,
		NoiseMode: core.MatrixNoise,
		ActorGrid: []int{2, 4, 6},
		SigmaGrid: []float64{0, 0.3, 0.8},
		PaSamples: 6,
	}
}

func seriesYs(t *testing.T, tb *stats.Table, name string) []float64 {
	t.Helper()
	s := tb.FindSeries(name)
	if s == nil {
		t.Fatalf("missing series %q in %q", name, tb.Title)
	}
	return s.Ys()
}

func TestFig2Shape(t *testing.T) {
	tb, err := Fig2(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	gain := seriesYs(t, tb, "gain")
	loss := seriesYs(t, tb, "-loss")
	if len(gain) != 3 {
		t.Fatalf("gain points = %d", len(gain))
	}
	// Paper: gains grow with the number of actors (before saturation).
	if !stats.MonotoneIncreasing(gain, 0.05*(1+gain[0])) {
		t.Errorf("gain not increasing with actors: %v", gain)
	}
	// Gains are met with losses: −loss ≥ gain pointwise (an attack
	// destroys welfare, so losses outweigh gains).
	for i := range gain {
		if loss[i] < gain[i]-1e-6 {
			t.Errorf("point %d: -loss %v < gain %v", i, loss[i], gain[i])
		}
	}
	// gain+loss (= Σ welfare deltas) must not depend on the actor split.
	net := seriesYs(t, tb, "gain+loss")
	for i := 1; i < len(net); i++ {
		if rel := (net[i] - net[0]) / (1 + abs(net[0])); abs(rel) > 0.05 {
			t.Errorf("gain+loss varies with actors: %v", net)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestFig3Shape(t *testing.T) {
	cfg := fastCfg()
	cfg.AttackBudget = 2
	tb, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cfg.ActorGrid {
		ys := seriesYs(t, tb, seriesName(n))
		if len(ys) != len(cfg.SigmaGrid) {
			t.Fatalf("%d actors: %d points", n, len(ys))
		}
		// Profit at zero noise must be ≥ profit at heavy noise.
		if ys[0] < ys[len(ys)-1]-1e-9 {
			t.Errorf("%d actors: profit rose with noise: %v", n, ys)
		}
	}
	// More actors → more SA profit at σ=0 (more granular opportunities).
	y2 := seriesYs(t, tb, "2 actors")[0]
	y6 := seriesYs(t, tb, "6 actors")[0]
	if y6 < y2-1e-9 {
		t.Errorf("6-actor profit (%v) below 2-actor (%v) at σ=0", y6, y2)
	}
}

func seriesName(n int) string {
	switch n {
	case 2:
		return "2 actors"
	case 4:
		return "4 actors"
	case 6:
		return "6 actors"
	case 12:
		return "12 actors"
	}
	return ""
}

func TestFig4Shape(t *testing.T) {
	cfg := fastCfg()
	cfg.AttackBudget = 2
	tb, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ant := seriesYs(t, tb, "anticipated")
	obs := seriesYs(t, tb, "observed")
	// At σ=0 they coincide; at high σ anticipated ≥ observed.
	if abs(ant[0]-obs[0]) > 1e-6*(1+abs(ant[0])) {
		t.Errorf("σ=0: anticipated %v ≠ observed %v", ant[0], obs[0])
	}
	last := len(ant) - 1
	if ant[last] < obs[last]-1e-9 {
		t.Errorf("high σ: anticipated %v < observed %v (no overconfidence)", ant[last], obs[last])
	}
}

func TestFig5Shape(t *testing.T) {
	cfg := fastCfg()
	tb, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cfg.ActorGrid {
		ys := seriesYs(t, tb, seriesName(n))
		for _, y := range ys {
			if y < -1e-9 {
				t.Errorf("%d actors: negative effectiveness %v", n, y)
			}
		}
	}
}

func TestFig6Shape(t *testing.T) {
	cfg := fastCfg()
	tb, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ind := seriesYs(t, tb, "independent")
	col := seriesYs(t, tb, "collaborative")
	if len(ind) != len(col) || len(ind) != len(cfg.SigmaGrid) {
		t.Fatalf("series sizes wrong: %d/%d", len(ind), len(col))
	}
	// Collaboration never hurts on average at zero noise (cost sharing
	// only adds options). Allow tiny numerical slack.
	if col[0] < ind[0]-1e-6*(1+abs(ind[0])) {
		t.Errorf("collaboration worse at σ=0: %v vs %v", col[0], ind[0])
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := fastCfg()
	tb, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ben := seriesYs(t, tb, "benefit")
	if len(ben) != len(cfg.ActorGrid) {
		t.Fatalf("benefit points = %d", len(ben))
	}
	for i, b := range ben {
		if b < -1e-6 {
			t.Errorf("point %d: negative collaboration benefit %v", i, b)
		}
	}
}

func TestAllRunsEverything(t *testing.T) {
	cfg := fastCfg()
	cfg.Trials = 2
	cfg.ActorGrid = []int{2, 4}
	cfg.SigmaGrid = []float64{0, 0.5}
	out, err := All(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7"} {
		tb, ok := out[name]
		if !ok || tb == nil {
			t.Fatalf("missing %s", name)
		}
		if !strings.Contains(strings.ToLower(tb.Title), "fig") {
			t.Fatalf("%s has unexpected title %q", name, tb.Title)
		}
		if len(tb.Series) == 0 {
			t.Fatalf("%s has no series", name)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.trials() != 5 || c.seed() != 1 || c.attackBudget() != 6 ||
		c.systemDefenseBudget() != 12 {
		t.Fatal("defaults wrong")
	}
	if len(c.sigmaGrid()) == 0 || len(c.actorGrid([]int{2})) != 1 {
		t.Fatal("grids wrong")
	}
	if c.graph() == nil {
		t.Fatal("default graph nil")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := fastCfg()
	cfg.Trials = 3
	t1, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range t1.Series {
		ys1, ys2 := s.Ys(), t2.Series[i].Ys()
		for j := range ys1 {
			if ys1[j] != ys2[j] {
				t.Fatalf("nondeterministic experiment: %v vs %v", ys1[j], ys2[j])
			}
		}
	}
}

// TestFig2DispatchesGridOnce: Fig. 2 draws a new ownership for every actor
// count over one grid, and ownership never enters the dispatch, so with no
// Cache set the figure's own memo serves every actor count after the first:
// the grid's baseline is solved cold once, and no LP is solved after the
// first actor count's matrix.
func TestFig2DispatchesGridOnce(t *testing.T) {
	solves := telemetry.Default().Counter("lp.solves")
	warm := telemetry.Default().Counter("lp.warm_attempts")
	cfg := Config{Trials: 1, Seed: 1, ActorGrid: []int{2}}
	before := solves.Value()
	if _, err := Fig2(cfg); err != nil {
		t.Fatal(err)
	}
	oneCount := solves.Value() - before
	s0, w0 := solves.Value(), warm.Value()
	cfg.ActorGrid = nil // the paper's eight actor counts
	if _, err := Fig2(cfg); err != nil {
		t.Fatal(err)
	}
	if cold := solves.Value() - s0 - (warm.Value() - w0); cold != 1 {
		t.Errorf("Fig. 2 solved its grid's baseline cold %d times over 8 actor counts, want 1", cold)
	}
	if n := solves.Value() - s0; n != oneCount {
		t.Errorf("Fig. 2 solved %d LPs over 8 actor counts, one actor count's matrix takes %d", n, oneCount)
	}
}
