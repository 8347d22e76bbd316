// Revised bench suite (BENCH_revised.json, see bench_report_test.go): the
// sparse revised simplex against the dense oracle, with the lp.revised.*
// pivot, factorization and eta-update counters, so the speedup and the work
// profile that produces it live in one file.
package cpsguard

import (
	"testing"

	"cpsguard/internal/flow"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/lp"
	"cpsguard/internal/westgrid"
)

// nationalDispatchOp returns the op constructor of one full dispatch of a
// seeded national-tier system with the given simplex method. The graph
// build is outside the op; every op pays the whole standard-form build +
// solve + extraction path, as the impact layer does per perturbation.
//
// RevisedNationalGrid dispatches 256 regions (~2000 buses, ~3800 assets),
// the sparse-LU regime the revised kernel exists for. The oracle pair,
// RevisedNationalOracle and DenseNationalOracle, shares 64 regions, the
// largest instance where the dense tableau's quadratic per-pivot cost
// stays at seconds, not minutes, per solve.
func nationalDispatchOp(regions int, m lp.Method) func(testing.TB) func() error {
	return func(tb testing.TB) func() error {
		g, err := gridgen.Build(gridgen.Config{
			Regions: regions, Seed: 3, Tier: gridgen.TierNational, Stress: true,
		})
		if err != nil {
			tb.Fatal(err)
		}
		return func() error {
			_, err := flow.DispatchOpts(g, flow.Options{LP: lp.Options{Method: m}})
			return err
		}
	}
}

// revisedSimplexOp dispatches the stressed six-state evaluation model with
// the default options — the production small-instance path, which the size
// rule keeps on the dense kernel.
func revisedSimplexOp(testing.TB) func() error {
	g := westgrid.Build(westgrid.Options{Stress: true})
	return func() error {
		_, err := flow.DispatchOpts(g, flow.Options{})
		return err
	}
}

// checkRevised fails unless RevisedNationalGrid records every lp.revised.*
// counter family (a revised entry without them means the telemetry wiring
// regressed) and, when timed, unless the revised method is at least 5x
// faster than the dense oracle on the shared national instance.
func checkRevised(t *testing.T, e map[string]benchEntry, timed bool) {
	natl := e["RevisedNationalGrid"].Counters
	for _, c := range []string{"lp.revised.solves", "lp.revised.factorizations",
		"lp.revised.eta_updates", "lp.revised.ftran_solves", "lp.revised.btran_solves"} {
		if natl[c] == 0 {
			t.Errorf("RevisedNationalGrid recorded no %s counter", c)
		}
	}
	if !timed {
		return
	}
	dense, rev := e["DenseNationalOracle"].NsPerOp, e["RevisedNationalOracle"].NsPerOp
	if rev <= 0 || dense < 5*rev {
		t.Errorf("RevisedNationalOracle %d ns/op is not ≥5x faster than DenseNationalOracle %d ns/op", rev, dense)
	} else {
		t.Logf("national-scale speedup: %.1fx (dense %d → revised %d ns/op)",
			float64(dense)/float64(rev), dense, rev)
	}
}
