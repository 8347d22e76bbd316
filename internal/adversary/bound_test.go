package adversary

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
	"cpsguard/internal/screen"
)

// referenceSolve is the exact search with its earlier, budget-blind bound:
// the chosen targets' summed optimistic values plus every positive
// optimistic value left in the tail (ubTail). Search order, greedy
// incumbent, tie rule and node accounting are those of Solve, so the two
// may differ only in what they prune.
func referenceSolve(cfg Config) (*Plan, error) {
	in, err := newInstance(cfg)
	if err != nil {
		return nil, err
	}
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 2_000_000
	}
	order := in.searchOrder(cfg)
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
	m := &impact.Matrix{IM: map[string]map[string]float64{}, WelfareDelta: map[string]float64{}}
	for j := 0; j < nA; j++ {
		a := fmt.Sprintf("a%d", j)
		m.Actors = append(m.Actors, a)
		m.IM[a] = map[string]float64{}
	}
	shift := 0.3 + 0.3*rs.Float64() // share of negative impacts
	targets := make([]Target, nT)
	uniform := rs.Intn(2) == 0
	for i := range targets {
		id := fmt.Sprintf("t%02d", i)
		m.Targets = append(m.Targets, id)
		for _, a := range m.Actors {
			m.IM[a][id] = (rs.Float64() - shift) * 10
		}
		targets[i] = Target{ID: id, Cost: 1, SuccessProb: 0.5 + 0.5*rs.Float64()}
		if !uniform {
			targets[i].Cost = 0.2 + 2*rs.Float64()
			if rs.Intn(12) == 0 {
				targets[i].Cost = 0
			}
		}
	}
	return Config{
		Matrix:  m,
		Targets: targets,
		Budget:  1 + float64(rs.Intn(nT/2+1)) + 0.5*rs.Float64(),
	}
}

// withScreen attaches a ranking certifying a seeded third of the targets
// as zero-impact, so the search runs over the screen-filtered order.
func withScreen(cfg Config, seed uint64) Config {
	rs := rng.Derive(1516, seed)
	rank := &screen.Ranking{}
	for _, t := range cfg.Targets {
		rank.Targets = append(rank.Targets, screen.TargetScore{ID: t.ID, CertifiedZero: rs.Intn(3) == 0})
	}
	cfg.Screen = rank
	return cfg
}

// TestBudgetBoundMatchesReference runs the budget-aware search against the
// budget-blind reference over seeded instances, unscreened and screened.
// Wherever the reference proves its plan, the plans must be identical;
// wherever it stops at the node cap, the new search must prove a plan at
// least as good. Small instances are also checked against the MILP oracle.
func TestBudgetBoundMatchesReference(t *testing.T) {
	const referenceMaxNodes = 4000
	instances := uint64(3000)
	if testing.Short() {
		instances = 300
	}
	var proven, capped, maxNodes, milpChecked, refNodes, newNodes int
	for seed := uint64(0); seed < instances; seed++ {
		base := boundInstance(seed)
		for _, cfg := range []Config{base, withScreen(base, seed)} {
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
				t.Fatalf("seed %d (screened %v): not proven (nodes %d, gap %v)", seed, cfg.Screen != nil, got.Nodes, got.Gap)
			}
			if ref.Proven {
				proven++
				if !slices.Equal(got.Targets, ref.Targets) || !slices.Equal(got.Actors, ref.Actors) ||
					got.Anticipated != ref.Anticipated {
					t.Fatalf("seed %d (screened %v): plan %v/%v/%v, reference %v/%v/%v", seed, cfg.Screen != nil,
						got.Targets, got.Actors, got.Anticipated, ref.Targets, ref.Actors, ref.Anticipated)
				}
			} else {
				capped++
				if got.Anticipated < ref.Anticipated {
					t.Fatalf("seed %d (screened %v): proven %v below the capped reference %v",
						seed, cfg.Screen != nil, got.Anticipated, ref.Anticipated)
				}
			}
			if len(cfg.Targets) <= 6 {
				milpChecked++
				oracle, err := solveMILP(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !approx(got.Anticipated, oracle.Anticipated, 1e-6*(1+math.Abs(oracle.Anticipated))) {
					t.Fatalf("seed %d (screened %v): exact %v ≠ MILP %v", seed, cfg.Screen != nil, got.Anticipated, oracle.Anticipated)
				}
			}
		}
	}
	t.Logf("%d reference-proven plans identical, %d capped reference plans now proven, %d MILP checks; nodes %d → %d (largest search %d)",
		proven, capped, milpChecked, refNodes, newNodes, maxNodes)
	if capped == 0 {
		t.Fatal("no reference solve hit its node cap: the battery does not cover the unproven case")
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
