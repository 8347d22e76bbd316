package lp_test

import (
	"sync"
	"testing"

	"cpsguard/internal/core"
	"cpsguard/internal/experiments"
	"cpsguard/internal/lp"
)

// TestGoldenFig5Certified runs the configuration behind the repository's
// golden Fig. 5 fixture (golden_test.go's goldenCfg) with the KKT
// certificate on every LP solve: each optimum the pipeline reports — the
// baselines and every warm re-solve of a perturbed dispatch — must be
// primal and dual feasible with a zero duality gap.
func TestGoldenFig5Certified(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline certificate run")
	}
	var mu sync.Mutex
	certified := 0
	restore := lp.CertifySolves(func(p *lp.Problem, err error) {
		mu.Lock()
		defer mu.Unlock()
		certified++
		if err != nil {
			t.Errorf("certificate: %d×%d LP %q: %v", p.NumConstraints(), p.NumVariables(), p.Name(), err)
		}
	})
	defer restore()
	before := lp.WarmSolves()
	_, err := experiments.Fig5(experiments.Config{
		Trials:    2,
		Seed:      7,
		ActorGrid: []int{2, 4},
		SigmaGrid: []float64{0, 0.2},
		PaSamples: 4,
		NoiseMode: core.MatrixNoise,
	})
	if err != nil {
		t.Fatal(err)
	}
	warm := lp.WarmSolves() - before
	t.Logf("%d optimal solves certified, %d of them warm", certified, warm)
	if certified == 0 || warm == 0 {
		t.Fatalf("%d solves certified, %d warm: the golden run did not exercise the warm path", certified, warm)
	}
}
