package adversary

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// matrixOf builds an impact.Matrix from a map for testing; every listed
// cell is present.
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

func simpleMatrix() *impact.Matrix {
	return matrixOf(map[string]map[string]float64{
		"A": {"t1": +10, "t2": -4, "t3": +1},
		"B": {"t1": -12, "t2": +6, "t3": +1},
		"C": {"t1": +1, "t2": -1, "t3": -5},
	})
}

func TestSolvePicksProfitableTargetsAndActors(t *testing.T) {
	m := simpleMatrix()
	cfg := Config{
		Matrix:  m,
		Targets: UniformTargets(m.Targets, 1, 1),
		Budget:  2,
	}
	p, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Proven {
		t.Fatal("small instance must be proven optimal")
	}
	// Best 2-target attack: {t1,t2} with A = {A,B}? Capture per actor:
	// A: 10−4=6>0 include; B: −12+6=−6 exclude; C: 1−1=0 exclude.
	// value = 6 − 2 = 4.
	// Alternative {t1,t3}: A: 11, B: −11, C: −4 → 11−2 = 9. Better!
	// {t2,t3}: A:−3, B:7, C:−6 → 7−2=5. {t1}: A=10,C=1 → 11−1=10. Best!
	// Wait {t1} alone: A:+10 → include; C:+1 → include → 11−1=10.
	// {t1,t3}: A:11, B:−11, C:−4 → 11−2=9. So optimum is {t1} = 10.
	if !approx(p.Anticipated, 10, 1e-9) {
		t.Fatalf("anticipated = %v (targets %v actors %v), want 10", p.Anticipated, p.Targets, p.Actors)
	}
	if len(p.Targets) != 1 || p.Targets[0] != "t1" {
		t.Fatalf("targets = %v, want [t1]", p.Targets)
	}
	wantActors := []string{"A", "C"}
	if len(p.Actors) != 2 || p.Actors[0] != wantActors[0] || p.Actors[1] != wantActors[1] {
		t.Fatalf("actors = %v, want %v", p.Actors, wantActors)
	}
}

func TestBudgetConstrains(t *testing.T) {
	m := simpleMatrix()
	cfg := Config{Matrix: m, Targets: UniformTargets(m.Targets, 5, 1), Budget: 4.9}
	p, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Targets) != 0 || p.Anticipated != 0 {
		t.Fatalf("unaffordable attack should be empty: %+v", p)
	}
}

func TestSuccessProbabilityScalesProfit(t *testing.T) {
	m := simpleMatrix()
	cfg := Config{Matrix: m, Targets: UniformTargets(m.Targets, 1, 0.5), Budget: 1}
	p, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// {t1} at Ps=0.5: capture A 5, C 0.5 → 5.5 − 1 = 4.5.
	if !approx(p.Anticipated, 4.5, 1e-9) {
		t.Fatalf("anticipated = %v, want 4.5", p.Anticipated)
	}
}

func TestAllActorsMeansNoAttack(t *testing.T) {
	// Paper: "if A is every actor, the target set T will be empty because
	// the underlying system is operating at a maximal social welfare."
	// Equivalent check: a matrix whose columns are all ≤ 0 in sum and
	// individually non-positive for every actor → empty attack.
	m := matrixOf(map[string]map[string]float64{
		"A": {"t1": -3, "t2": -1},
		"B": {"t1": -2, "t2": -2},
	})
	cfg := Config{Matrix: m, Targets: UniformTargets(m.Targets, 0, 1), Budget: 10}
	p, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Targets) != 0 || p.Anticipated != 0 {
		t.Fatalf("no-gain matrix should yield empty attack, got %+v", p)
	}
}

func TestZeroCostTargetsAllProfitableChosen(t *testing.T) {
	m := simpleMatrix()
	cfg := Config{Matrix: m, Targets: UniformTargets(m.Targets, 0, 1), Budget: 0}
	p, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Free attacks: optimum is the subset maximizing Σ_j max(0, capture).
	// Enumerate: {t1,t2,t3}: A:7,B:−5,C:−5 → 7. {t1,t3}: A:11 → 11.
	// {t1}: 11. {t1,t2}: 6. {t3}: A1+B1 → 2. {t1,t3} vs {t1}: equal 11.
	if !approx(p.Anticipated, 11, 1e-9) {
		t.Fatalf("anticipated = %v, want 11", p.Anticipated)
	}
}

// greedyPlan is the plan of the greedy heuristic that seeds Solve's
// incumbent.
func greedyPlan(t *testing.T, cfg Config) *Plan {
	t.Helper()
	in, err := newInstance(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := in.greedy(in.searchOrder())
	return in.plan(set, len(set), false)
}

func TestGreedyNeverBeatsExact(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rs := rng.Derive(7, uint64(trial))
		im := map[string]map[string]float64{}
		nA, nT := 2+rs.Intn(4), 3+rs.Intn(8)
		var tids []string
		for i := 0; i < nT; i++ {
			tids = append(tids, "t"+string(rune('a'+i)))
		}
		for j := 0; j < nA; j++ {
			row := map[string]float64{}
			for _, tid := range tids {
				row[tid] = (rs.Float64() - 0.5) * 20
			}
			im["A"+string(rune('0'+j))] = row
		}
		m := matrixOf(im)
		cfg := Config{Matrix: m, Targets: UniformTargets(m.Targets, 1, 1), Budget: float64(1 + rs.Intn(4))}
		exact, err := Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		greedy := greedyPlan(t, cfg)
		if greedy.Anticipated > exact.Anticipated+1e-9 {
			t.Fatalf("greedy %v beat exact %v", greedy.Anticipated, exact.Anticipated)
		}
		if !exact.Proven {
			t.Fatal("exact search should prove optimality on tiny instances")
		}
	}
}

func TestExactMatchesMILPOracle(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rs := rng.Derive(13, uint64(trial))
		im := map[string]map[string]float64{}
		for j := 0; j < 3; j++ {
			row := map[string]float64{}
			for i := 0; i < 4; i++ {
				row["t"+string(rune('0'+i))] = (rs.Float64() - 0.5) * 10
			}
			im["A"+string(rune('0'+j))] = row
		}
		m := matrixOf(im)
		cfg := Config{Matrix: m, Targets: UniformTargets(m.Targets, 1, 0.8), Budget: 2}
		exact, err := Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := solveMILP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(exact.Anticipated, oracle.Anticipated, 1e-6*(1+math.Abs(oracle.Anticipated))) {
			t.Fatalf("trial %d: exact %v ≠ MILP %v", trial, exact.Anticipated, oracle.Anticipated)
		}
	}
}

func TestEvaluateRealizedVsAnticipated(t *testing.T) {
	believed := simpleMatrix()
	truth := matrixOf(map[string]map[string]float64{
		"A": {"t1": +2, "t2": -4, "t3": +1}, // t1 is much less valuable in truth
		"B": {"t1": -12, "t2": +6, "t3": +1},
		"C": {"t1": +1, "t2": -1, "t3": -5},
	})
	targets := UniformTargets(believed.Targets, 1, 1)
	p, err := Solve(Config{Matrix: believed, Targets: targets, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	realized := Evaluate(p, truth, targets, EvaluateOptions{})
	// Plan was {t1} with actors {A,C}: realized = 2+1−1 = 2 < 10.
	if !approx(realized, 2, 1e-9) {
		t.Fatalf("realized = %v, want 2", realized)
	}
	if realized >= p.Anticipated {
		t.Fatal("overconfident SA should realize less than anticipated")
	}
}

func TestEvaluateDefendedTargets(t *testing.T) {
	m := simpleMatrix()
	targets := UniformTargets(m.Targets, 1, 1)
	p, err := Solve(Config{Matrix: m, Targets: targets, Budget: 1})
	if err != nil {
		t.Fatal(err)
	}
	realized := Evaluate(p, m, targets, EvaluateOptions{Defended: map[string]bool{"t1": true}})
	// Attack on t1 fails; SA still pays 1.
	if !approx(realized, -1, 1e-9) {
		t.Fatalf("defended realized = %v, want -1", realized)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Solve(Config{Matrix: simpleMatrix()}); err != ErrNoTargets {
		t.Fatalf("err = %v, want ErrNoTargets", err)
	}
	if _, err := Solve(Config{Targets: UniformTargets([]string{"t"}, 1, 1)}); err == nil {
		t.Fatal("nil matrix accepted")
	}
	bad := Config{Matrix: simpleMatrix(), Targets: []Target{{ID: "t1", Cost: -1, SuccessProb: 1}}}
	if _, err := Solve(bad); err == nil {
		t.Fatal("negative cost accepted")
	}
	bad2 := Config{Matrix: simpleMatrix(), Targets: []Target{{ID: "t1", Cost: 1, SuccessProb: 2}}}
	if _, err := Solve(bad2); err == nil {
		t.Fatal("Ps > 1 accepted")
	}
}

// TestSolveCanceled pins that cancellation is a caller decision, not a
// degradation: a canceled context aborts the search with the context error
// and no plan, even when an incumbent exists.
func TestSolveCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := simpleMatrix()
	plan, err := Solve(Config{
		Matrix: m, Targets: UniformTargets(m.Targets, 1, 1), Budget: 2,
		Ctx: ctx, CheckEvery: 1,
	})
	if !errors.Is(err, context.Canceled) || plan != nil {
		t.Fatalf("Solve = %+v, %v; want nil, context.Canceled", plan, err)
	}
}

func TestNodeLimitFallsBackToIncumbent(t *testing.T) {
	rs := rng.New(3)
	im := map[string]map[string]float64{}
	var tids []string
	for i := 0; i < 20; i++ {
		tids = append(tids, "t"+string(rune('a'+i)))
	}
	for j := 0; j < 6; j++ {
		row := map[string]float64{}
		for _, tid := range tids {
			row[tid] = (rs.Float64() - 0.5) * 20
		}
		im["A"+string(rune('0'+j))] = row
	}
	m := matrixOf(im)
	cfg := Config{Matrix: m, Targets: UniformTargets(m.Targets, 1, 1), Budget: 6, MaxNodes: 5}
	p, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Proven {
		t.Fatal("node-limited search cannot be proven")
	}
	greedy := greedyPlan(t, cfg)
	if p.Anticipated < greedy.Anticipated-1e-9 {
		t.Fatalf("fallback (%v) worse than greedy (%v)", p.Anticipated, greedy.Anticipated)
	}
}

func TestUniformTargets(t *testing.T) {
	ts := UniformTargets([]string{"a", "b"}, 2, 0.7)
	if len(ts) != 2 || ts[0].Cost != 2 || ts[1].SuccessProb != 0.7 || ts[0].ID != "a" {
		t.Fatalf("UniformTargets = %+v", ts)
	}
}
