// Screen bench suite (BENCH_screen.json, see bench_report_test.go): a
// depth-2 vulnerability screen of a 64-region national-tier instance with
// the screen.* counters, so the dominance rule's candidate reduction is
// tracked as a number, not an anecdote. The suite fails unless the screen
// prunes at least as many contingency sets as it evaluates (a ≥2x
// reduction of the candidate space).
package cpsguard

import (
	"strings"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
	"cpsguard/internal/screen"
	"cpsguard/internal/solvecache"
)

// screenBenchTargets caps the corridor-target set: 32 targets give a
// 528-pair N-2 space — large enough for the dominance rule to matter,
// small enough that one screen stays in benchmark territory (the full
// 464-corridor space at depth 2 is ~10^5 sets, minutes of solves even
// with pruning).
const screenBenchTargets = 32

// screenBenchInstance builds the shared 64-region national-tier instance
// and its corridor-target slice (transmission and pipeline edges — the
// contingencies N-k studies range over).
func screenBenchInstance(tb testing.TB) (*impact.Analysis, []string) {
	tb.Helper()
	g, err := gridgen.Build(gridgen.Config{
		Regions: 64, Seed: 3, Tier: gridgen.TierNational, Stress: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	var corridor []string
	for _, id := range g.AssetIDs() {
		if strings.HasPrefix(id, "tx:") || strings.HasPrefix(id, "pipe:") {
			corridor = append(corridor, id)
		}
	}
	if len(corridor) < screenBenchTargets {
		tb.Fatalf("national instance has %d corridor targets, want ≥ %d", len(corridor), screenBenchTargets)
	}
	an := &impact.Analysis{
		Graph:     g,
		Ownership: actors.RandomOwnership(g, 4, rng.Derive(3, 0x5C12)),
	}
	return an, corridor[:screenBenchTargets]
}

// screenNationalOp returns one depth-2 vulnerability screen of the
// 64-region national instance over its capped corridor-target set — the
// production screening stack end to end: solve cache, warm starts, revised
// simplex, dominance pruning. Each op starts from a fresh analysis and an
// empty solve cache, so every op solves its dispatches, the baseline
// included, rather than reading the previous op's.
func screenNationalOp(tb testing.TB) func() error {
	an, targets := screenBenchInstance(tb)
	return func() error {
		op := &impact.Analysis{Graph: an.Graph, Ownership: an.Ownership, Cache: solvecache.New(16384)}
		_, err := screen.Run(screen.Config{Analysis: op, Targets: targets, K: 2})
		return err
	}
}

// checkScreen fails unless the screen recorded its counters and the
// dominance rule pruned at least as many contingency sets as were
// evaluated — the screen must at least halve the candidate space on the
// national instance, or it is not earning its keep.
func checkScreen(t *testing.T, e map[string]benchEntry, _ bool) {
	counters := e["ScreenNational"].Counters
	for _, c := range []string{"screen.runs", "screen.evaluated", "screen.pruned"} {
		if counters[c] == 0 {
			t.Errorf("ScreenNational recorded no %s counter", c)
		}
	}
	evaluated, pruned := counters["screen.evaluated"], counters["screen.pruned"]
	if pruned < evaluated {
		t.Errorf("dominance rule pruned %d of %d+%d contingency sets — less than half the candidate space",
			pruned, evaluated, pruned)
	}
}
