package defense

import (
	"math"
	"slices"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/adversary"
	"cpsguard/internal/impact"
	"cpsguard/internal/parallel"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func matrixOf(im map[string]map[string]float64) *impact.Matrix {
	var as, ts []string
	for a, row := range im {
		as = append(as, a)
		for t := range row {
			if !slices.Contains(ts, t) {
				ts = append(ts, t)
			}
		}
	}
	slices.Sort(as)
	slices.Sort(ts)
	m, err := impact.NewMatrix(as, ts, func(i, j int) (float64, bool) {
		v, ok := im[as[i]][ts[j]]
		return v, ok
	})
	if err != nil {
		panic(err)
	}
	return m
}

func TestPlanIndependentBasics(t *testing.T) {
	m := matrixOf(map[string]map[string]float64{
		"A": {"t1": -10, "t2": -2, "t3": +5},
		"B": {"t1": +10, "t2": -8},
	})
	o := actors.Ownership{"t1": "A", "t2": "A", "t3": "A"}
	inv, err := PlanIndependent(IndependentConfig{
		Actor: "A", Matrix: m, Ownership: o,
		AttackProb: map[string]float64{"t1": 1, "t2": 1, "t3": 1},
		Costs:      UniformCosts([]string{"t1", "t2", "t3"}, 1),
		Budget:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// t1 averts 10 at cost 1 (net 9); t2 averts 2 at cost 1 (net 1);
	// t3 is a gain — never defended. Budget 2 → defend both t1, t2.
	if !inv.Defended["t1"] || !inv.Defended["t2"] || inv.Defended["t3"] {
		t.Fatalf("defended = %v", inv.Defended)
	}
	if !approx(inv.Spent, 2, 1e-12) || !approx(inv.AvertedExpectedLoss, 10, 1e-12) {
		t.Fatalf("spent=%v averted=%v", inv.Spent, inv.AvertedExpectedLoss)
	}
}

func TestDefendOnlyWhenWorthIt(t *testing.T) {
	// Paper rule: defend iff Ps·Pa·I > Cd.
	m := matrixOf(map[string]map[string]float64{"A": {"t1": -10}})
	o := actors.Ownership{"t1": "A"}
	cfg := IndependentConfig{
		Actor: "A", Matrix: m, Ownership: o,
		AttackProb: map[string]float64{"t1": 0.05}, // expected loss 0.5 < Cd 1
		Costs:      UniformCosts([]string{"t1"}, 1),
		Budget:     10,
	}
	inv, err := PlanIndependent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Defended) != 0 {
		t.Fatalf("uneconomic defense chosen: %v", inv.Defended)
	}
	// Raise Pa above break-even.
	cfg.AttackProb = map[string]float64{"t1": 0.2}
	inv, _ = PlanIndependent(cfg)
	if !inv.Defended["t1"] {
		t.Fatal("economic defense skipped")
	}
	// Ps scales the same way.
	cfg.SuccessProb = map[string]float64{"t1": 0.1} // 0.2·0.1·10 = 0.2 < 1
	inv, _ = PlanIndependent(cfg)
	if len(inv.Defended) != 0 {
		t.Fatal("Ps not applied")
	}
}

func TestOwnershipRestrictsIndependentDefense(t *testing.T) {
	m := matrixOf(map[string]map[string]float64{
		"A": {"t1": -10, "t2": -10},
	})
	o := actors.Ownership{"t1": "A", "t2": "B"} // t2 owned by B
	inv, err := PlanIndependent(IndependentConfig{
		Actor: "A", Matrix: m, Ownership: o,
		AttackProb: map[string]float64{"t1": 1, "t2": 1},
		Costs:      UniformCosts([]string{"t1", "t2"}, 1),
		Budget:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inv.Defended["t2"] {
		t.Fatal("actor defended an asset it does not own")
	}
	if !inv.Defended["t1"] {
		t.Fatal("own asset not defended")
	}
}

func TestBudgetBindsAndPrioritizes(t *testing.T) {
	m := matrixOf(map[string]map[string]float64{
		"A": {"t1": -10, "t2": -6, "t3": -4},
	})
	o := actors.Ownership{"t1": "A", "t2": "A", "t3": "A"}
	inv, err := PlanIndependent(IndependentConfig{
		Actor: "A", Matrix: m, Ownership: o,
		AttackProb: map[string]float64{"t1": 1, "t2": 1, "t3": 1},
		Costs:      UniformCosts([]string{"t1", "t2", "t3"}, 1),
		Budget:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Defended["t1"] || !inv.Defended["t2"] || inv.Defended["t3"] {
		t.Fatalf("budget prioritization wrong: %v", inv.Defended)
	}
}

func TestPlanAllIndependentAndUnion(t *testing.T) {
	m := matrixOf(map[string]map[string]float64{
		"A": {"t1": -10, "t2": +3},
		"B": {"t1": +10, "t2": -9},
	})
	o := actors.Ownership{"t1": "A", "t2": "B"}
	invs, err := PlanAllIndependent(m, o,
		map[string]float64{"t1": 1, "t2": 1},
		UniformCosts([]string{"t1", "t2"}, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	u := Union(invs)
	if !u["t1"] || !u["t2"] {
		t.Fatalf("union = %v, want both defended", u)
	}
}

func TestPlanCollaborativeSharesCosts(t *testing.T) {
	// One target harming both actors: individually uneconomic, jointly
	// economic — the paper's pooling motivation.
	m := matrixOf(map[string]map[string]float64{
		"A": {"shared": -6},
		"B": {"shared": -6},
	})
	o := actors.Ownership{"shared": "A"}
	pa := map[string]float64{"shared": 0.5} // each expects 3 averted
	costs := UniformCosts([]string{"shared"}, 5)
	// Independent: A would avert 3 at cost 5 → skip.
	invA, err := PlanIndependent(IndependentConfig{
		Actor: "A", Matrix: m, Ownership: o, AttackProb: pa, Costs: costs, Budget: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(invA.Defended) != 0 {
		t.Fatal("independent defense should be uneconomic")
	}
	// Collaborative: total averted 6 > 5, shares 2.5 each.
	cinv, err := PlanCollaborative(CollaborativeConfig{
		Matrix: m, Ownership: o,
		AttackProb: SharedAttackProb(m, pa),
		Costs:      costs,
		Budget:     map[string]float64{"A": 2.5, "B": 2.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cinv.Defended["shared"] {
		t.Fatalf("collaboration failed to defend: %+v", cinv)
	}
	if !approx(cinv.Share["A"]["shared"], 2.5, 1e-9) || !approx(cinv.Share["B"]["shared"], 2.5, 1e-9) {
		t.Fatalf("shares = %v, want 2.5 each", cinv.Share)
	}
	if !approx(cinv.TotalValue, 1, 1e-9) { // 6 − 5
		t.Fatalf("total value = %v, want 1", cinv.TotalValue)
	}
}

func TestCollaborativeSharesProportionalToImpact(t *testing.T) {
	m := matrixOf(map[string]map[string]float64{
		"A": {"x": -9},
		"B": {"x": -3},
	})
	o := actors.Ownership{"x": "A"}
	cinv, err := PlanCollaborative(CollaborativeConfig{
		Matrix: m, Ownership: o,
		AttackProb: SharedAttackProb(m, map[string]float64{"x": 1}),
		Costs:      UniformCosts([]string{"x"}, 4),
		Budget:     map[string]float64{"A": 3, "B": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shares: A pays 4·9/12 = 3, B pays 4·3/12 = 1 (Eq. 15).
	if !cinv.Defended["x"] {
		t.Fatalf("not defended: %+v", cinv)
	}
	if !approx(cinv.Share["A"]["x"], 3, 1e-9) || !approx(cinv.Share["B"]["x"], 1, 1e-9) {
		t.Fatalf("shares = %v", cinv.Share)
	}
}

// TestCollaborativeDeterministic: six actors harmed by one target, with
// different losses and attack probabilities, sum their averted losses in a
// fixed order, so repeated plans of the same inputs agree bit for bit. A
// map-order sum gives two different values here.
func TestCollaborativeDeterministic(t *testing.T) {
	im := map[string]map[string]float64{}
	pa := map[string]map[string]float64{}
	budget := map[string]float64{}
	for i, a := range []string{"A", "B", "C", "D", "E", "F"} {
		im[a] = map[string]float64{"t1": -(0.1 + float64(i)*0.7331), "t2": -1e-3 * float64(i+1)}
		pa[a] = map[string]float64{"t1": 0.1 * float64(i+1), "t2": 0.3}
		budget[a] = 1
	}
	m := matrixOf(im)
	var first uint64
	for k := 0; k < 200; k++ {
		inv, err := PlanCollaborative(CollaborativeConfig{
			Matrix: m, Ownership: actors.Ownership{"t1": "A", "t2": "B"},
			AttackProb: pa, Costs: Costs{"t1": 0.01, "t2": 0.0001}, Budget: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(inv.TotalValue); k == 0 {
			first = bits
		} else if bits != first {
			t.Fatalf("plan %d: total value %v, first plan %v", k, inv.TotalValue, math.Float64frombits(first))
		}
	}
}

func TestCollaborativeRequiresAlignedIncentives(t *testing.T) {
	// B gains from the attack → only A is in CD(t); A alone can't
	// justify cost. (Paper: cooperating defenders must all have negative
	// impacts.)
	m := matrixOf(map[string]map[string]float64{
		"A": {"x": -6},
		"B": {"x": +6},
	})
	o := actors.Ownership{"x": "A"}
	cinv, err := PlanCollaborative(CollaborativeConfig{
		Matrix: m, Ownership: o,
		AttackProb: SharedAttackProb(m, map[string]float64{"x": 0.5}),
		Costs:      UniformCosts([]string{"x"}, 5),
		Budget:     map[string]float64{"A": 5, "B": 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cinv.Defended) != 0 {
		t.Fatalf("misaligned target defended: %+v", cinv)
	}
}

func TestCollaborativeBudgetRows(t *testing.T) {
	// Two valuable targets, but actor A's budget only covers one share.
	m := matrixOf(map[string]map[string]float64{
		"A": {"x": -10, "y": -10},
		"B": {"x": -10, "y": -10},
	})
	o := actors.Ownership{"x": "A", "y": "B"}
	cinv, err := PlanCollaborative(CollaborativeConfig{
		Matrix: m, Ownership: o,
		AttackProb: SharedAttackProb(m, map[string]float64{"x": 1, "y": 1}),
		Costs:      UniformCosts([]string{"x", "y"}, 4),
		Budget:     map[string]float64{"A": 2, "B": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each share is 2 per actor per target; A can afford only one.
	if len(cinv.Defended) != 1 {
		t.Fatalf("defended = %v, want exactly 1", cinv.Defended)
	}
}

func TestEstimateAttackProb(t *testing.T) {
	m := matrixOf(map[string]map[string]float64{
		"A": {"big": +100, "small": +1},
		"B": {"big": -50, "small": -1},
	})
	targets := adversary.UniformTargets(m.Targets, 1, 1)
	// With zero speculation noise the SA always picks "big".
	pa, err := EstimateAttackProb(m, targets, 1, 0, 16, 7, parallel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(pa["big"], 1, 1e-12) {
		t.Fatalf("Pa(big) = %v, want 1", pa["big"])
	}
	if pa["small"] != 0 {
		t.Fatalf("Pa(small) = %v, want 0", pa["small"])
	}
	// With large noise, probabilities spread out but stay in [0,1] and
	// remain deterministic for a fixed seed.
	pa1, err := EstimateAttackProb(m, targets, 1, 1.0, 64, 7, parallel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pa2, _ := EstimateAttackProb(m, targets, 1, 1.0, 64, 7, parallel.Options{})
	for k, v := range pa1 {
		if v < 0 || v > 1+1e-9 {
			t.Fatalf("Pa out of range: %v", v)
		}
		if pa2[k] != v {
			t.Fatal("EstimateAttackProb not deterministic")
		}
	}
	if pa1["big"] >= 1 {
		t.Fatalf("heavy noise should sometimes divert the SA, Pa(big)=%v", pa1["big"])
	}
	if _, err := EstimateAttackProb(m, targets, 1, 0, 0, 7, parallel.Options{}); err == nil {
		t.Fatal("samples=0 accepted")
	}
}

func TestNilMatrixRejected(t *testing.T) {
	if _, err := PlanIndependent(IndependentConfig{}); err == nil {
		t.Fatal("nil matrix accepted (independent)")
	}
	if _, err := PlanCollaborative(CollaborativeConfig{}); err == nil {
		t.Fatal("nil matrix accepted (collaborative)")
	}
}
