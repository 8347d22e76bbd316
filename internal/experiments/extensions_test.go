package experiments

import (
	"testing"

	"cpsguard/internal/impact"
)

func TestBaselineComparisonShape(t *testing.T) {
	cfg := fastCfg()
	cfg.Trials = 3
	cfg.SigmaGrid = []float64{0, 0.5}
	tb, err := BaselineComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"economic-independent", "economic-collaborative", "betweenness", "capacity-betweenness"} {
		s := tb.FindSeries(name)
		if s == nil || len(s.Points) != 2 {
			t.Fatalf("series %q missing or wrong size", name)
		}
		for _, p := range s.Points {
			if p.Y < -1e-9 {
				t.Fatalf("%s: negative effectiveness %v", name, p.Y)
			}
		}
	}
	// Topological strategies ignore σ: their two points must match.
	topo := tb.FindSeries("betweenness").Ys()
	if topo[0] != topo[1] {
		t.Fatalf("topological defense should be σ-independent: %v", topo)
	}
	// At σ=0 the economic collaborative defender (which sees the true
	// impacts) must be at least as effective as blind topology.
	col := tb.FindSeries("economic-collaborative").Ys()
	if col[0] < topo[0]-1e-6 {
		t.Fatalf("economic defense (%v) worse than topological (%v) at σ=0", col[0], topo[0])
	}
}

func TestDeceptionShape(t *testing.T) {
	cfg := fastCfg()
	cfg.Trials = 4
	cfg.AttackBudget = 2
	cfg.SigmaGrid = []float64{0, 1.0}
	tb, err := Deception(cfg)
	if err != nil {
		t.Fatal(err)
	}
	val := tb.FindSeries("deception value").Ys()
	if val[0] != 0 {
		t.Fatalf("deception value at σ=0 must be 0, got %v", val[0])
	}
	if val[1] < -1e-9 {
		t.Fatalf("heavy deception should not help the adversary: %v", val[1])
	}
	obs := tb.FindSeries("realized").Ys()
	if obs[1] > obs[0]+1e-9 {
		t.Fatalf("deceived adversary out-performed informed one: %v", obs)
	}
}

func TestAttackVectorsShape(t *testing.T) {
	cfg := fastCfg()
	cfg.Trials = 2
	cfg.AttackBudget = 2
	tb, err := AttackVectors(cfg)
	if err != nil {
		t.Fatal(err)
	}
	profit := tb.FindSeries("SA profit").Ys()
	damage := tb.FindSeries("worst-case system damage").Ys()
	if len(profit) != 3 || len(damage) != 3 {
		t.Fatalf("want 3 vector families, got %d/%d", len(profit), len(damage))
	}
	// The outage dominates: it is the most violent perturbation.
	if damage[0] < damage[1]-1e-6 || damage[0] < damage[2]-1e-6 {
		t.Fatalf("outage should cause the most damage: %v", damage)
	}
	for i, p := range profit {
		if p < -1e-9 {
			t.Fatalf("vector %d: negative SA profit %v (empty attack is free)", i, p)
		}
	}
}

func TestStandardVectorsLegal(t *testing.T) {
	g := miniGrid()
	for _, vec := range StandardVectors() {
		for _, e := range g.Edges {
			ps := vec.Make(e.ID, e.Capacity)
			if len(ps) == 0 {
				t.Fatalf("%s produced no perturbations", vec.Name)
			}
			for _, p := range ps {
				if p.EdgeID != e.ID {
					t.Fatalf("%s perturbs wrong edge", vec.Name)
				}
			}
		}
	}
}

func TestComputeMatrixOfSubtleAttack(t *testing.T) {
	// Integration check: loss attacks through the generalized matrix.
	g := miniGrid()
	an := &impact.Analysis{Graph: g, Ownership: map[string]string{"s1": "A", "s2": "B", "s3": "C", "dA": "A", "dB": "B", "bypass": "C"}}
	m, err := an.ComputeMatrixOf([]string{"s1", "dA"}, func(id string) []impact.Perturbation {
		return []impact.Perturbation{{EdgeID: id, Field: impact.Loss, Value: 0.3}}
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, tg := range m.Targets {
		if m.WelfareDelta[j] > 1e-6 {
			t.Fatalf("loss attack on %s increased welfare: %v", tg, m.WelfareDelta[j])
		}
	}
}

func TestSecurityPremiumShape(t *testing.T) {
	cfg := fastCfg()
	tb, err := SecurityPremium(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prem := tb.FindSeries("security premium").Ys()
	sec := tb.FindSeries("secured: worst post-attack service %").Ys()
	unsec := tb.FindSeries("unsecured: worst post-attack service %").Ys()
	if len(prem) < 2 {
		t.Fatalf("premium points = %d", len(prem))
	}
	for i := range prem {
		if prem[i] < -1e-6 {
			t.Fatalf("negative premium at k=%d: %v", i, prem[i])
		}
		if sec[i] < -1e-6 || sec[i] > 100+1e-6 || unsec[i] < -1e-6 || unsec[i] > 100+1e-6 {
			t.Fatalf("service %% out of range at k=%d: %v / %v", i, sec[i], unsec[i])
		}
		// The secured dispatch guarantees ≥90% service on its protected
		// corridors; the unsecured one guarantees nothing.
		if i > 0 && sec[i] < 90-1e-6 {
			t.Fatalf("secured service below guarantee at k=%d: %v", i, sec[i])
		}
		if sec[i] < unsec[i]-1e-6 {
			t.Fatalf("secured service below unsecured at k=%d: %v < %v", i, sec[i], unsec[i])
		}
	}
	// Premium weakly increases with the number of secured corridors.
	for i := 1; i < len(prem); i++ {
		if prem[i] < prem[i-1]-1e-6 {
			t.Fatalf("premium not monotone: %v", prem)
		}
	}
}

func TestHardeningComparisonShape(t *testing.T) {
	cfg := fastCfg()
	cfg.Trials = 3
	tb, err := HardeningComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bin := tb.FindSeries("binary").Ys()
	hard := tb.FindSeries("hardening").Ys()
	if len(bin) != 4 || len(hard) != 4 {
		t.Fatalf("points = %d/%d, want 4", len(bin), len(hard))
	}
	for i := range bin {
		// Reductions are nonnegative: defense never helps the SA, who
		// can always fall back to an unhardened plan.
		if bin[i] < -1e-6 || hard[i] < -1e-6 {
			t.Fatalf("negative reduction at %d: bin=%v hard=%v", i, bin[i], hard[i])
		}
	}
	// Hardening value weakly grows with budget.
	if !monotoneUp(hard, 1e-6+0.05*(1+hard[0])) {
		t.Fatalf("hardening not improving with budget: %v", hard)
	}
}

func monotoneUp(ys []float64, slack float64) bool {
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1]-slack {
			return false
		}
	}
	return true
}
