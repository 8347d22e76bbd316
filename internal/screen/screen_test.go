// The screen's correctness battery. Pruning soundness is the whole game,
// so the center of gravity is differential: every screened result is
// compared against an oracle that evaluates the full outage lattice
// (NoPrune).
package screen_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
	"cpsguard/internal/screen"
	"cpsguard/internal/solvecache"
)

func loadGrids(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "grids", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no grid fixtures in testdata/grids")
	}
	grids := make(map[string]*graph.Graph, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var g graph.Graph
		if err := json.Unmarshal(data, &g); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		name := filepath.Base(p)
		grids[name[:len(name)-len(".json")]] = &g
	}
	return grids
}

// checkScreenOracle runs the screen with pruning and against the NoPrune
// oracle (which evaluates every enumerated set) and requires: the reported
// worst contingency is bit-identical, and pruned + evaluated covers exactly
// the oracle's universe — no set silently vanishes.
func checkScreenOracle(t *testing.T, label string, an *impact.Analysis, targets []string, k int) *screen.Ranking {
	t.Helper()
	pr, err := screen.Run(screen.Config{Analysis: an, Targets: targets, K: k})
	if err != nil {
		t.Fatalf("%s k=%d: screened: %v", label, k, err)
	}
	or, err := screen.Run(screen.Config{Analysis: an, Targets: targets, K: k, NoPrune: true})
	if err != nil {
		t.Fatalf("%s k=%d: oracle: %v", label, k, err)
	}
	if !reflect.DeepEqual(pr.Worst.Targets, or.Worst.Targets) {
		t.Errorf("%s k=%d: screened worst %v != oracle %v", label, k, pr.Worst.Targets, or.Worst.Targets)
	}
	if pr.Worst.Delta != or.Worst.Delta {
		t.Errorf("%s k=%d: screened worst delta %v != oracle %v (want bit-identical)",
			label, k, pr.Worst.Delta, or.Worst.Delta)
	}
	if pr.BaselineWelfare != or.BaselineWelfare {
		t.Errorf("%s k=%d: baselines differ: %v vs %v", label, k, pr.BaselineWelfare, or.BaselineWelfare)
	}
	if or.Pruned != 0 {
		t.Errorf("%s k=%d: oracle pruned %d sets, want 0", label, k, or.Pruned)
	}
	if pr.Evaluated+pr.Pruned != or.Evaluated {
		t.Errorf("%s k=%d: screened covered %d+%d sets, oracle evaluated %d — enumeration universe differs",
			label, k, pr.Evaluated, pr.Pruned, or.Evaluated)
	}
	return pr
}

// TestScreenVsBruteForce is the differential proof: over every committed
// fixture grid and hundreds of seeded gridgen grids, the screen with
// pruning reports the same worst contingency as the evaluate-everything
// oracle.
func TestScreenVsBruteForce(t *testing.T) {
	grids := loadGrids(t)
	names := make([]string, 0, len(grids))
	for n := range grids {
		names = append(names, n)
	}
	for _, name := range names {
		g := grids[name]
		t.Run("fixture/"+name, func(t *testing.T) {
			own := actors.RandomOwnership(g, 4, rng.New(42))
			an := &impact.Analysis{Graph: g, Ownership: own, Cache: solvecache.New(8192)}
			ids := g.AssetIDs()
			sub := ids
			if len(sub) > 10 {
				sub = sub[:10]
			}
			checkScreenOracle(t, name, an, sub, 2)
			checkScreenOracle(t, name, an, nil, 1)
		})
	}

	nGrids := 200
	if testing.Short() {
		nGrids = 25
	}
	t.Run("seeded", func(t *testing.T) {
		for i := 0; i < nGrids; i++ {
			seed := uint64(i + 1)
			g, err := gridgen.Build(gridgen.Config{
				Regions: 2 + i%3, Seed: seed, Stress: i%2 == 0,
			})
			if err != nil {
				t.Fatalf("grid %d: %v", i, err)
			}
			label := fmt.Sprintf("grid%03d", i)
			own := actors.RandomOwnership(g, 2+i%4, rng.New(seed^0x5C12EE))
			an := &impact.Analysis{Graph: g, Ownership: own, Cache: solvecache.New(8192)}
			checkScreenOracle(t, label, an, nil, 1)
			if i%10 == 0 {
				ids := g.AssetIDs()
				sub := ids
				if len(sub) > 9 {
					sub = sub[:9]
				}
				checkScreenOracle(t, label, an, sub, 2)
				checkScreenOracle(t, label, an, sub[:min(len(sub), 7)], 3)
			}
		}
	})
}

// TestScreenNationalTierPrunes requires nonzero dominance pruning on a
// national-tier grid: the corridor families are generated as directed
// pairs, so at most one direction of each carries flow in an optimum and
// supersets of the idle direction are skipped.
func TestScreenNationalTierPrunes(t *testing.T) {
	if testing.Short() {
		t.Skip("national-tier screen is a long differential; run without -short")
	}
	g, err := gridgen.Build(gridgen.Config{Regions: 16, Seed: 3, Tier: gridgen.TierNational, Stress: true})
	if err != nil {
		t.Fatal(err)
	}
	var corridors []string
	for i := range g.Edges {
		id := g.Edges[i].ID
		if strings.HasPrefix(id, "tx:") || strings.HasPrefix(id, "pipe:") {
			corridors = append(corridors, id)
		}
		if len(corridors) == 24 {
			break
		}
	}
	if len(corridors) < 4 {
		t.Fatalf("national grid yielded only %d corridor edges", len(corridors))
	}
	own := actors.RandomOwnership(g, 6, rng.New(11))
	an := &impact.Analysis{Graph: g, Ownership: own, Cache: solvecache.New(8192)}
	rank := checkScreenOracle(t, "national", an, corridors, 2)
	if rank.Pruned == 0 {
		t.Errorf("national tier: screen.pruned is zero over %d corridor targets (evaluated %d)",
			len(corridors), rank.Evaluated)
	}
}

// TestScreenRejectsBadTargets locks the up-front target validation: an
// unknown edge and a repeated target are errors naming the offending ID,
// not a silently degraded screen.
func TestScreenRejectsBadTargets(t *testing.T) {
	g := loadGrids(t)["westgrid_stressed"]
	if g == nil {
		t.Fatal("westgrid_stressed fixture missing")
	}
	an := &impact.Analysis{Graph: g, Ownership: actors.RandomOwnership(g, 3, rng.New(7))}
	ids := g.AssetIDs()
	for _, tc := range []struct {
		name    string
		targets []string
		want    string
	}{
		{"unknown", []string{ids[0], "no-such-edge"}, `"no-such-edge"`},
		{"duplicate", []string{ids[0], ids[1], ids[0]}, fmt.Sprintf("duplicate target %q", ids[0])},
	} {
		_, err := screen.Run(screen.Config{Analysis: an, Targets: tc.targets, K: 2})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s targets: err = %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

// TestScreenDeterminism: two runs over fresh caches must produce deeply
// equal rankings — the ranking is a pure function of the inputs.
func TestScreenDeterminism(t *testing.T) {
	g, err := gridgen.Build(gridgen.Config{Regions: 3, Seed: 9, Stress: true})
	if err != nil {
		t.Fatal(err)
	}
	own := actors.RandomOwnership(g, 4, rng.New(3))
	run := func() *screen.Ranking {
		an := &impact.Analysis{Graph: g, Ownership: own, Cache: solvecache.New(4096)}
		r, err := screen.Run(screen.Config{Analysis: an, K: 2, Targets: g.AssetIDs()[:12]})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Errorf("two identical screen runs differ:\n%s\n%s", aj, bj)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
