package adversary

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
)

// referenceSolve is the exact search with its earlier, budget-blind bound:
// the chosen targets' summed optimistic values plus every positive
// optimistic value left in the tail (ubTail). It searches the full sorted
// target order, negative-value targets included. Greedy incumbent, tie rule
// and node accounting are those of Solve, so the two may differ only in
// what they prune.
func referenceSolve(cfg Config) (*Plan, error) {
	in, err := newInstance(cfg)
	if err != nil {
		return nil, err
	}
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 2_000_000
	}
	order := make([]int, len(in.ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return in.opt[order[a]] > in.opt[order[b]] })
	greedySet := in.greedy(order)
	bestVal, _ := in.value(greedySet)
	bestSet := append([]int(nil), greedySet...)
	if bestVal < 0 {
		bestVal, bestSet = 0, nil
	}
	ubTail := make([]float64, len(order)+1)
	for k := len(order) - 1; k >= 0; k-- {
		ubTail[k] = ubTail[k+1] + math.Max(in.opt[order[k]], 0)
	}
	nodes := 0
	exhausted := false
	var cur []int
	var dfs func(k int, spent, curOpt float64)
	dfs = func(k int, spent, curOpt float64) {
		if exhausted {
			return
		}
		nodes++
		if nodes > maxNodes {
			exhausted = true
			return
		}
		if val, _ := in.value(cur); val > bestVal+1e-12 {
			bestVal = val
			bestSet = append(bestSet[:0], cur...)
		}
		if k >= len(order) {
			return
		}
		if curOpt+ubTail[k] <= bestVal+1e-12 {
			return
		}
		i := order[k]
		if spent+in.cost[i] <= in.budget+1e-12 {
			cur = append(cur, i)
			dfs(k+1, spent+in.cost[i], curOpt+math.Max(in.opt[i], 0)+math.Min(in.opt[i], 0))
			cur = cur[:len(cur)-1]
		}
		dfs(k+1, spent, curOpt)
	}
	dfs(0, 0, 0)
	return in.plan(bestSet, nodes, !exhausted), nil
}

// boundInstance draws seeded instance #seed: 4–22 targets, 2–6 actors,
// mixed-sign impacts, success probabilities in [0.5, 1], and either the
// paper's uniform unit costs or mixed costs (some of them zero).
func boundInstance(seed uint64) Config {
	rs := rng.Derive(1515, seed)
	nT, nA := 4+rs.Intn(19), 2+rs.Intn(5)
	as := make([]string, nA)
	for j := range as {
		as[j] = fmt.Sprintf("a%d", j)
	}
	shift := 0.3 + 0.3*rs.Float64() // share of negative impacts
	targets := make([]Target, nT)
	ids := make([]string, nT)
	im := make([][]float64, nA) // im[j][i] is actor j's delta under target i
	for j := range im {
		im[j] = make([]float64, nT)
	}
	uniform := rs.Intn(2) == 0
	for i := range targets {
		ids[i] = fmt.Sprintf("t%02d", i)
		for j := range im {
			im[j][i] = (rs.Float64() - shift) * 10
		}
		targets[i] = Target{ID: ids[i], Cost: 1, SuccessProb: 0.5 + 0.5*rs.Float64()}
		if !uniform {
			targets[i].Cost = 0.2 + 2*rs.Float64()
			if rs.Intn(12) == 0 {
				targets[i].Cost = 0
			}
		}
	}
	m, err := impact.NewMatrix(as, ids, func(j, i int) (float64, bool) { return im[j][i], true })
	if err != nil {
		panic(err)
	}
	return Config{
		Matrix:  m,
		Targets: targets,
		Budget:  1 + float64(rs.Intn(nT/2+1)) + 0.5*rs.Float64(),
	}
}

// TestBudgetBoundMatchesReference runs the budget-aware search, which drops
// negative-value targets, against the budget-blind reference over the full
// target order on seeded instances. Wherever the reference proves its plan,
// the plans must be identical; wherever it stops at the node cap, the new
// search must prove a plan at least as good. Small instances are also
// checked against the MILP oracle.
func TestBudgetBoundMatchesReference(t *testing.T) {
	const referenceMaxNodes = 4000
	instances := uint64(3000)
	if testing.Short() {
		instances = 300
	}
	pruned0 := mPrunedTargets.Value()
	var proven, capped, maxNodes, milpChecked, refNodes, newNodes int
	for seed := uint64(0); seed < instances; seed++ {
		cfg := boundInstance(seed)
		refCfg := cfg
		refCfg.MaxNodes = referenceMaxNodes
		ref, err := referenceSolve(refCfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refNodes += ref.Nodes
		newNodes += got.Nodes
		maxNodes = max(maxNodes, got.Nodes)
		if !got.Proven || got.Gap != 0 {
			t.Fatalf("seed %d: not proven (nodes %d, gap %v)", seed, got.Nodes, got.Gap)
		}
		if ref.Proven {
			proven++
			if !slices.Equal(got.Targets, ref.Targets) || !slices.Equal(got.Actors, ref.Actors) ||
				got.Anticipated != ref.Anticipated {
				t.Fatalf("seed %d: plan %v/%v/%v, reference %v/%v/%v", seed,
					got.Targets, got.Actors, got.Anticipated, ref.Targets, ref.Actors, ref.Anticipated)
			}
		} else {
			capped++
			if got.Anticipated < ref.Anticipated {
				t.Fatalf("seed %d: proven %v below the capped reference %v", seed, got.Anticipated, ref.Anticipated)
			}
		}
		if len(cfg.Targets) <= 6 {
			milpChecked++
			oracle, err := solveMILP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !approx(got.Anticipated, oracle.Anticipated, 1e-6*(1+math.Abs(oracle.Anticipated))) {
				t.Fatalf("seed %d: exact %v ≠ MILP %v", seed, got.Anticipated, oracle.Anticipated)
			}
		}
	}
	pruned := mPrunedTargets.Value() - pruned0
	t.Logf("%d reference-proven plans identical, %d capped reference plans now proven, %d MILP checks; nodes %d → %d (largest search %d), %d targets pruned",
		proven, capped, milpChecked, refNodes, newNodes, maxNodes, pruned)
	if capped == 0 {
		t.Fatal("no reference solve hit its node cap: the battery does not cover the unproven case")
	}
	if pruned == 0 {
		t.Fatal("no negative-value target was dropped: the battery does not cover the prune")
	}
}

// TestNegativeTargetsPruned hand-builds an instance with two targets whose
// optimistic net value is strictly negative: Solve must drop exactly those
// two from its search order and still return the plan of the reference
// search over all four targets.
func TestNegativeTargetsPruned(t *testing.T) {
	m := matrixOf(map[string]map[string]float64{
		"A": {"t1": 10, "t2": 4, "t3": -5, "t4": 0.5},
		"B": {"t1": -3, "t2": 2, "t3": -2, "t4": -8},
	})
	// Optimistic values at unit cost: t1 9, t2 5, t3 −1, t4 −0.5.
	cfg := Config{Matrix: m, Targets: UniformTargets(m.Targets, 1, 1), Budget: 3}
	ref, err := referenceSolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pruned0 := mPrunedTargets.Value()
	got, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := mPrunedTargets.Value() - pruned0; d != 2 {
		t.Fatalf("adversary.pruned_targets advanced by %d, want 2", d)
	}
	if !got.Proven || !slices.Equal(got.Targets, ref.Targets) || !slices.Equal(got.Actors, ref.Actors) ||
		got.Anticipated != ref.Anticipated {
		t.Fatalf("plan %v/%v/%v (proven %v), reference %v/%v/%v", got.Targets, got.Actors, got.Anticipated,
			got.Proven, ref.Targets, ref.Actors, ref.Anticipated)
	}
}

// TestGapBoundsTheOptimum caps the search after a handful of nodes: the
// reported gap must close the distance to the MILP optimum, and a proven
// plan must report none.
func TestGapBoundsTheOptimum(t *testing.T) {
	var capped int
	for seed := uint64(0); seed < 60; seed++ {
		cfg := incrementalFixture(8+int(seed%5), 3, seed)
		cfg.MaxNodes = 2 + int(seed%7)
		plan, err := Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Gap < 0 || math.IsNaN(plan.Gap) {
			t.Fatalf("seed %d: gap %v", seed, plan.Gap)
		}
		if plan.Proven {
			if plan.Gap != 0 {
				t.Fatalf("seed %d: proven plan reports gap %v", seed, plan.Gap)
			}
			continue
		}
		capped++
		oracle, err := solveMILP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Anticipated+plan.Gap < oracle.Anticipated-1e-9*(1+math.Abs(oracle.Anticipated)) {
			t.Fatalf("seed %d: anticipated %v + gap %v below the MILP optimum %v",
				seed, plan.Anticipated, plan.Gap, oracle.Anticipated)
		}
	}
	if capped == 0 {
		t.Fatal("no solve hit the node cap")
	}
}
