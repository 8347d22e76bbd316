package cpsguard

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/telemetry"
)

// loadTestGrids reads every committed grid fixture under testdata/grids.
// The set spans the stressed six-state model (scarcity: congested lines,
// load shed), the unstressed one (slack everywhere), and a synthetic
// five-region grid — three qualitatively different polytopes for the
// dispatch LP.
func loadTestGrids(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "grids", "*.json"))
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

// randomPerturbationSet draws 1–4 perturbations over distinct edges with
// values inside each field's valid range: capacity in [0, 1.5·c] (including
// the outage end), cost in [0, 2·a+1], loss in [0, 0.9).
func randomPerturbationSet(g *graph.Graph, rs *rng.Stream) []impact.Perturbation {
	ids := g.AssetIDs()
	k := 1 + rs.Intn(4)
	if k > len(ids) {
		k = len(ids)
	}
	perm := make([]string, len(ids))
	copy(perm, ids)
	for i := 0; i < k; i++ {
		j := i + rs.Intn(len(perm)-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	ps := make([]impact.Perturbation, 0, k)
	for _, id := range perm[:k] {
		e := g.Edge(id)
		var p impact.Perturbation
		switch rs.Intn(3) {
		case 0:
			p = impact.Perturbation{EdgeID: id, Field: impact.Capacity, Value: e.Capacity * 1.5 * rs.Float64()}
		case 1:
			p = impact.Perturbation{EdgeID: id, Field: impact.Cost, Value: (2*e.Cost + 1) * rs.Float64()}
		default:
			p = impact.Perturbation{EdgeID: id, Field: impact.Loss, Value: 0.9 * rs.Float64()}
		}
		ps = append(ps, p)
	}
	return ps
}

// agreeWithin reports |a−b| ≤ tol·max(1,|a|,|b|): absolute at small scale,
// relative once the profits reach the model's $k magnitudes.
func agreeWithin(a, b, tol float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

func profitsDiff(t *testing.T, label string, cold, got actors.Profits, tol float64) {
	t.Helper()
	keys := map[string]bool{}
	for a := range cold {
		keys[a] = true
	}
	for a := range got {
		keys[a] = true
	}
	sorted := make([]string, 0, len(keys))
	for a := range keys {
		sorted = append(sorted, a)
	}
	sort.Strings(sorted)
	for _, a := range sorted {
		cv, gv := cold[a], got[a]
		if tol == 0 {
			if cv != gv {
				t.Errorf("%s: actor %s profit delta %v != cold %v (want bit-identical)", label, a, gv, cv)
			}
		} else if !agreeWithin(cv, gv, tol) {
			t.Errorf("%s: actor %s profit delta %v vs cold %v exceeds %g", label, a, gv, cv, tol)
		}
	}
}

// coldOracle prices ps the way the pipeline did before dispatch LPs were
// compiled once and re-solved warm: clone and re-validate the graph
// (impact.Apply), build and solve its dispatch LP two-phase from scratch
// (flow.DispatchOpts with no basis), divide the profits, and subtract the
// baseline priced the same way. It shares no state with impact.Analysis.
func coldOracle(t *testing.T, g *graph.Graph, own actors.Ownership, ps []impact.Perturbation) (actors.Profits, float64) {
	t.Helper()
	divide := func(g *graph.Graph) (actors.Profits, float64) {
		r, err := flow.DispatchOpts(g, flow.Options{})
		if err != nil {
			t.Fatalf("oracle dispatch: %v", err)
		}
		if r.WarmStarted {
			t.Fatal("oracle dispatch ran warm")
		}
		p, err := actors.Divide(actors.LMPDivision{}, g, r, own)
		if err != nil {
			t.Fatalf("oracle divide: %v", err)
		}
		return p, r.Welfare
	}
	gp, err := impact.Apply(g, ps...)
	if err != nil {
		t.Fatalf("oracle apply: %v", err)
	}
	base, baseW := divide(g)
	p, w := divide(gp)
	delta := actors.Profits{}
	for a, v := range p {
		delta[a] = v - base[a]
	}
	for a, v := range base {
		if _, ok := p[a]; !ok {
			delta[a] = -v
		}
	}
	return delta, w - baseW
}

// fixedPerturbationSets lists one set of each perturbation shape per grid:
// an outage, a half-capacity derating, a cost change, a loss change, and
// multi-edge sets mixing the three fields.
func fixedPerturbationSets(g *graph.Graph) map[string][]impact.Perturbation {
	ids := g.AssetIDs()
	e0, e1, e2 := g.Edge(ids[0]), g.Edge(ids[len(ids)/2]), g.Edge(ids[len(ids)-1])
	return map[string][]impact.Perturbation{
		"outage":        {impact.Outage(e1.ID)},
		"half-capacity": {{EdgeID: e1.ID, Field: impact.Capacity, Value: e1.Capacity / 2}},
		"cost":          {{EdgeID: e0.ID, Field: impact.Cost, Value: 2*e0.Cost + 5}},
		"loss":          {{EdgeID: e2.ID, Field: impact.Loss, Value: 0.5}},
		"multi-outage":  {impact.Outage(e0.ID), impact.Outage(e1.ID), impact.Outage(e2.ID)},
		"multi-mixed": {
			{EdgeID: e0.ID, Field: impact.Capacity, Value: e0.Capacity / 2},
			{EdgeID: e1.ID, Field: impact.Cost, Value: e1.Cost + 3},
			{EdgeID: e2.ID, Field: impact.Loss, Value: 0.3},
			impact.Outage(e2.ID),
		},
	}
}

// TestDifferentialWarmAndCached is the differential harness locking down
// the production solve path — the dispatch LP compiled once per Analysis,
// every perturbation carried at the baseline optimum or re-solved warm from
// the baseline basis — and the memo cache against coldOracle. For every committed grid, the fixed perturbation
// shapes and a battery of seeded random sets it requires:
//
//   - the welfare delta and per-actor profit deltas of Analysis.Of agree
//     with the cold oracle within 1e-9 (relative at scale);
//   - cached Analysis.Of — both the filling miss and the subsequent hit —
//     is bit-identical to the uncached computation.
func TestDifferentialWarmAndCached(t *testing.T) {
	grids := loadTestGrids(t)
	setsPerGrid := 200 / len(grids)
	if testing.Short() {
		setsPerGrid = 10
	}

	names := make([]string, 0, len(grids))
	for n := range grids {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, name := range names {
		g := grids[name]
		t.Run(name, func(t *testing.T) {
			own := actors.RandomOwnership(g, 4, rng.New(42))
			prod := &impact.Analysis{Graph: g, Ownership: own}
			cached := &impact.Analysis{Graph: g, Ownership: own,
				Cache: solvecache.New(4096)}

			check := func(label string, ps []impact.Perturbation) {
				t.Helper()
				oracleP, oracleDW := coldOracle(t, g, own, ps)
				gotP, gotDW, err := prod.Of(ps...)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !agreeWithin(oracleDW, gotDW, 1e-9) {
					t.Errorf("%s: welfare delta %v vs cold oracle %v exceeds 1e-9", label, gotDW, oracleDW)
				}
				profitsDiff(t, label, oracleP, gotP, 1e-9)

				// Cache fill (miss) and hit must be bit-identical to uncached.
				for _, pass := range []string{"cached miss", "cached hit"} {
					cp, cdw, err := cached.Of(ps...)
					if err != nil {
						t.Fatalf("%s: %s: %v", label, pass, err)
					}
					if cdw != gotDW {
						t.Errorf("%s: %s welfare %v != uncached %v", label, pass, cdw, gotDW)
					}
					profitsDiff(t, label+": "+pass, gotP, cp, 0)
				}
			}

			fixed := fixedPerturbationSets(g)
			shapes := make([]string, 0, len(fixed))
			for shape := range fixed {
				shapes = append(shapes, shape)
			}
			sort.Strings(shapes)
			for _, shape := range shapes {
				check(shape, fixed[shape])
			}
			rs := rng.New(0xD1FF ^ uint64(len(name)))
			for i := 0; i < setsPerGrid; i++ {
				check(fmt.Sprintf("set %d", i), randomPerturbationSet(g, rs))
			}

			// A second analysis whose baseline a first one put in a shared
			// cache prices its outages, the carried ones against its own
			// cold baseline solve, bit-identically to one without a cache.
			shared := solvecache.New(4096)
			if _, err := (&impact.Analysis{Graph: g, Ownership: own, Cache: shared}).Outcome(); err != nil {
				t.Fatal(err)
			}
			second := &impact.Analysis{Graph: g, Ownership: own, Cache: shared}
			want, err := prod.ComputeMatrix(nil)
			if err != nil {
				t.Fatal(err)
			}
			carried := telemetry.Default().Counter("impact.carried")
			before := carried.Value()
			got, err := second.ComputeMatrix(nil)
			if err != nil {
				t.Fatal(err)
			}
			if carried.Value() == before {
				t.Error("no outage was carried over the cache-served baseline")
			}
			same := slices.Equal(got.Actors, want.Actors) && slices.Equal(got.Targets, want.Targets) &&
				slices.EqualFunc(got.WelfareDelta, want.WelfareDelta, func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				})
			for i := 0; same && i < len(want.Actors); i++ {
				for j := range want.Targets {
					if got.Present(i, j) != want.Present(i, j) ||
						math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
						t.Errorf("cell (%s, %s): matrix over a cache-served baseline differs from the uncached one",
							want.Actors[i], want.Targets[j])
					}
				}
			}
			if !same {
				t.Error("matrix over a cache-served baseline differs from the uncached matrix")
			}
		})
	}
}

// TestDifferentialOutageColumns sweeps every single-edge outage (the paper's
// attack model) and half-capacity derating on every grid — the exact solves
// the impact matrix is built from — comparing the production path to the
// cold oracle, and requires every one of those re-solves to stay warm.
func TestDifferentialOutageColumns(t *testing.T) {
	grids := loadTestGrids(t)
	names := make([]string, 0, len(grids))
	for n := range grids {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, name := range names {
		g := grids[name]
		t.Run(name, func(t *testing.T) {
			ids := g.AssetIDs()
			if testing.Short() && len(ids) > 12 {
				ids = ids[:12]
			}
			own := actors.RandomOwnership(g, 3, rng.New(7))
			prod := &impact.Analysis{Graph: g, Ownership: own,
				Cache: solvecache.New(4096)}
			fallbacks := telemetry.Default().Counter("lp.warm_fallbacks")
			before := fallbacks.Value()
			for _, id := range ids {
				half := g.Edge(id).Capacity / 2
				for _, ps := range [][]impact.Perturbation{
					{impact.Outage(id)},
					{{EdgeID: id, Field: impact.Capacity, Value: half}},
				} {
					label := fmt.Sprintf("%s capacity %v", id, ps[0].Value)
					oracleP, oracleDW := coldOracle(t, g, own, ps)
					gotP, gotDW, err := prod.Of(ps...)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !agreeWithin(oracleDW, gotDW, 1e-9) {
						t.Errorf("%s: welfare delta %v vs cold oracle %v", label, gotDW, oracleDW)
					}
					profitsDiff(t, label, oracleP, gotP, 1e-9)
				}
			}
			if n := fallbacks.Value() - before; n != 0 {
				t.Errorf("%d capacity re-solves fell back cold", n)
			}
		})
	}
}

// TestDifferentialInvalidPerturbations requires the compiled path to reject
// exactly what impact.Apply rejects, with the same error: unknown edges,
// unknown fields, and capacities, losses or costs outside what Validate
// accepts. A rejected set must leave no trace: the next valid set still
// prices bit-identically.
func TestDifferentialInvalidPerturbations(t *testing.T) {
	g := loadTestGrids(t)["westgrid_stressed"]
	own := actors.RandomOwnership(g, 4, rng.New(42))
	an := &impact.Analysis{Graph: g, Ownership: own}
	ids := g.AssetIDs()
	a, b := ids[0], ids[1]
	probe := []impact.Perturbation{impact.Outage(ids[2])}
	wantP, wantDW, err := an.Of(probe...)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]impact.Perturbation{
		"unknown-edge":      {impact.Outage("no-such-edge")},
		"unknown-field":     {{EdgeID: a, Field: impact.Field(9), Value: 1}},
		"negative-capacity": {{EdgeID: a, Field: impact.Capacity, Value: -1}},
		"nan-capacity":      {{EdgeID: a, Field: impact.Capacity, Value: math.NaN()}},
		"inf-capacity":      {{EdgeID: a, Field: impact.Capacity, Value: math.Inf(1)}},
		"loss-one":          {{EdgeID: a, Field: impact.Loss, Value: 1}},
		"loss-above-one":    {{EdgeID: a, Field: impact.Loss, Value: 1.5}},
		"nan-cost":          {{EdgeID: a, Field: impact.Cost, Value: math.NaN()}},
		// Apply edits every edge before validating, so a later unknown
		// edge wins over an earlier bad value, and among bad values the
		// first edge in edge order is reported.
		"bad-then-unknown": {{EdgeID: a, Field: impact.Capacity, Value: -1}, impact.Outage("no-such-edge")},
		"edge-order": {
			{EdgeID: b, Field: impact.Loss, Value: 2},
			{EdgeID: a, Field: impact.Capacity, Value: -1},
		},
	}
	for name, ps := range cases {
		_, applyErr := impact.Apply(g, ps...)
		if applyErr == nil {
			t.Fatalf("%s: Apply accepted the set", name)
		}
		_, _, err := an.Of(ps...)
		if err == nil || err.Error() != applyErr.Error() {
			t.Errorf("%s: Of error %v, Apply error %v", name, err, applyErr)
		}
		gotP, gotDW, err := an.Of(probe...)
		if err != nil {
			t.Fatal(err)
		}
		if gotDW != wantDW {
			t.Errorf("after %s: probe welfare delta %v, want %v", name, gotDW, wantDW)
		}
		profitsDiff(t, "after "+name, wantP, gotP, 0)
	}
}
