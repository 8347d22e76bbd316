package lp_test

import (
	"math"
	"testing"

	"cpsguard/internal/dcopf"
	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/lp"
	"cpsguard/internal/westgrid"
)

// TestDCOPFCertified solves the DC-OPF, the most degenerate LP in the
// repository, on the stressed westgrid and on the 16- and 64-region
// national grids with the KKT certificate on every solve. Each must come
// back Optimal from its single SolveOpts call, certified, at the pinned
// welfare. The 64-region grid is skipped under -short.
func TestDCOPFCertified(t *testing.T) {
	national := func(regions int) func(*testing.T) *graph.Graph {
		return func(t *testing.T) *graph.Graph {
			g, err := gridgen.Build(gridgen.Config{
				Regions: regions, Seed: 3, Tier: gridgen.TierNational, Stress: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	cases := []struct {
		name    string
		grid    func(*testing.T) *graph.Graph
		welfare float64
		long    bool
	}{
		{"westgrid", func(*testing.T) *graph.Graph {
			return westgrid.Build(westgrid.Options{Stress: true})
		}, 235516.7573616602, false},
		{"national16", national(16), 1051844.6499806629, false},
		{"national64", national(64), 3652427.4148934339, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("64-region DC-OPF")
			}
			g := c.grid(t)
			certified := 0
			restore := lp.CertifySolves(func(p *lp.Problem, err error) {
				certified++
				if err != nil {
					t.Errorf("certificate: %d×%d LP: %v", p.NumConstraints(), p.NumVariables(), err)
				}
			})
			defer restore()
			r, err := dcopf.Solve(g, dcopf.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if certified != 1 {
				t.Errorf("%d optimal solves certified, want 1", certified)
			}
			t.Logf("welfare %.10f in %d pivots", r.Welfare, r.Iterations)
			if math.Abs(r.Welfare-c.welfare) > 1e-9*c.welfare {
				t.Errorf("welfare = %.10f, want %.10f", r.Welfare, c.welfare)
			}
		})
	}
}
