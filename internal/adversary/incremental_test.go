package adversary

import (
	"fmt"
	"testing"

	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
)

// incrementalFixture builds a dense adversarial instance with mixed-sign
// impacts so the branch and bound explores a nontrivial tree.
func incrementalFixture(nTargets, nActors int, seed uint64) Config {
	rs := rng.New(seed)
	m := &impact.Matrix{IM: map[string]map[string]float64{}, WelfareDelta: map[string]float64{}}
	for j := 0; j < nActors; j++ {
		a := fmt.Sprintf("a%d", j)
		m.Actors = append(m.Actors, a)
		m.IM[a] = map[string]float64{}
	}
	var ids []string
	for i := 0; i < nTargets; i++ {
		t := fmt.Sprintf("e%d", i)
		ids = append(ids, t)
		m.Targets = append(m.Targets, t)
		for _, a := range m.Actors {
			m.IM[a][t] = (rs.Float64() - 0.4) * 10
		}
	}
	return Config{
		Matrix:  m,
		Targets: UniformTargets(ids, 1, 0.9),
		Budget:  float64(nTargets) / 2,
	}
}

// TestIncrementalEvaluationCounters is the regression test for the hoisted
// per-node evaluation: the DFS must price nodes from the parent's running
// sums, not by re-evaluating the whole target set, so the evaluation counter
// stays bounded by the greedy warm-up while the node counter scales with the
// search tree.
func TestIncrementalEvaluationCounters(t *testing.T) {
	cfg := incrementalFixture(18, 5, 3)
	evals0, nodes0 := mEvaluations.Value(), mNodes.Value()
	plan, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evals, nodes := mEvaluations.Value()-evals0, mNodes.Value()-nodes0
	if nodes != int64(plan.Nodes) {
		t.Fatalf("node counter delta %d != plan.Nodes %d", nodes, plan.Nodes)
	}
	if plan.Nodes < 100 {
		t.Fatalf("fixture too easy to regression-test search cost (%d nodes)", plan.Nodes)
	}
	// Full evaluations happen only in the greedy warm-up (≤ n² probes) and
	// the final plan rendering — never per search node.
	n := int64(len(cfg.Targets))
	if budget := n*n + n + 2; evals > budget {
		t.Fatalf("evaluations delta %d exceeds non-search budget %d — per-node re-evaluation is back (nodes=%d)",
			evals, budget, nodes)
	}
	if evals >= nodes {
		t.Fatalf("evaluations (%d) should be far below nodes (%d)", evals, nodes)
	}
}

// TestIncrementalMatchesExhaustive checks the incremental node values drive
// the search to the same optimum as exhaustive enumeration with the full
// evaluator — exact equality, because the running sums replay instance.value's
// addition order bit for bit.
func TestIncrementalMatchesExhaustive(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := incrementalFixture(11, 4, seed)
		plan, err := Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Proven {
			t.Fatalf("seed %d: search not proven", seed)
		}
		in, err := newInstance(cfg)
		if err != nil {
			t.Fatal(err)
		}
		best := 0.0
		n := len(in.ids)
		for mask := 1; mask < 1<<n; mask++ {
			var set []int
			spent := 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					set = append(set, i)
					spent += in.cost[i]
				}
			}
			if spent > in.budget+1e-12 {
				continue
			}
			if v, _ := in.value(set); v > best {
				best = v
			}
		}
		if plan.Anticipated != best {
			t.Fatalf("seed %d: search value %v != exhaustive optimum %v", seed, plan.Anticipated, best)
		}
	}
}
