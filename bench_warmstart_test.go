// Warmstart bench suite (BENCH_warmstart.json, see bench_report_test.go):
// the impact-matrix build, every outage re-solved warm from the baseline
// basis, and the uncached/cached adversary-round pair, with the warm and
// cold pivot counters and cache hit counts that explain their ns/op.
package cpsguard

import (
	"testing"

	"cpsguard/internal/adversary"
	"cpsguard/internal/core"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/westgrid"
)

// adversaryRoundOp returns one round — build the ground-truth matrix from
// scratch and run the exact SA search on it, the per-trial unit of the
// experiment sweeps — with every round sharing cache (nil for none).
func adversaryRoundOp(cache *solvecache.Cache) func() error {
	g := westgrid.Build(westgrid.Options{Stress: true})
	return func() error {
		s := core.NewScenario(g, 6, 3)
		s.Cache = cache
		m, err := s.Truth()
		if err != nil {
			return err
		}
		_, err = adversary.Solve(adversary.Config{
			Matrix: m, Targets: s.Targets, Budget: 6,
		})
		return err
	}
}

// adversaryColdOp is a round with no cache — the uncached per-trial cost.
func adversaryColdOp(testing.TB) func() error { return adversaryRoundOp(nil) }

// adversaryCachedOp is a round whose solve cache is shared across rounds,
// as experiments share one across trials.
func adversaryCachedOp(testing.TB) func() error { return adversaryRoundOp(solvecache.New(8192)) }

// checkWarmstart fails if any impact-matrix re-solve fell back cold or,
// when timed, if the cached adversary round is not at least 2x faster than
// the uncached one.
func checkWarmstart(t *testing.T, e map[string]benchEntry, timed bool) {
	if n := e["ImpactMatrix"].Counters["lp.warm_fallbacks"]; n != 0 {
		t.Errorf("ImpactMatrix: %d warm re-solves fell back cold", n)
	}
	if !timed {
		return
	}
	uncached, cached := e["AdversaryCold"].NsPerOp, e["AdversaryCached"].NsPerOp
	if cached <= 0 || uncached < 2*cached {
		t.Errorf("AdversaryCached %d ns/op is not ≥2x faster than AdversaryCold %d ns/op", cached, uncached)
	} else {
		t.Logf("solve-cache speedup: %.1fx (uncached %d → cached %d ns/op)",
			float64(uncached)/float64(cached), uncached, cached)
	}
}
