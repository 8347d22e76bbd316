package impact

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"cpsguard/internal/actors"
	"cpsguard/internal/graph"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/rng"
	"cpsguard/internal/westgrid"
)

// referencePerturbMatrix is the map-walk draw noisy impact matrices were first
// made with: it visits the actors in sorted order and each actor's present
// targets in sorted order, multiplying every value by (1 + sigma·z) for the
// next standard normal z of rs. Perturbed must reproduce it bit for bit.
func referencePerturbMatrix(values map[string]map[string]float64, sigma float64, rs *rng.Stream) map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(values))
	actorKeys := make([]string, 0, len(values))
	for a := range values {
		actorKeys = append(actorKeys, a)
	}
	sort.Strings(actorKeys)
	for _, a := range actorKeys {
		row := values[a]
		targetKeys := make([]string, 0, len(row))
		for t := range row {
			targetKeys = append(targetKeys, t)
		}
		sort.Strings(targetKeys)
		o := make(map[string]float64, len(row))
		for _, t := range targetKeys {
			v := row[t]
			if sigma == 0 {
				o[t] = v
			} else {
				o[t] = v * (1 + sigma*rs.NormFloat64())
			}
		}
		out[a] = o
	}
	return out
}

// layout reads m through its accessors into the map layout: one row per
// actor holding its present cells. It fails t if an absent cell does not
// read +0.
func layout(t testing.TB, m *Matrix) map[string]map[string]float64 {
	t.Helper()
	out := make(map[string]map[string]float64, len(m.Actors))
	for i, a := range m.Actors {
		row := map[string]float64{}
		for j, tg := range m.Targets {
			if m.Present(i, j) {
				row[tg] = m.At(i, j)
			} else if math.Float64bits(m.At(i, j)) != 0 {
				t.Fatalf("absent cell (%s, %s) reads %v", a, tg, m.At(i, j))
			}
		}
		out[a] = row
	}
	return out
}

// checkPerturbed fails t unless m.Perturbed(sigma, ·) and referencePerturbMatrix
// on m's map layout, from two streams of the same seed, agree on every
// cell's presence and bits and leave their streams at the same place. It
// returns the number of present cells holding exactly 0.
func checkPerturbed(t testing.TB, label string, m *Matrix, sigma float64, seed uint64) (zeros int) {
	t.Helper()
	rsGot, rsWant := rng.New(seed), rng.New(seed)
	got := m.Perturbed(sigma, rsGot)
	want := referencePerturbMatrix(layout(t, m), sigma, rsWant)
	for i, a := range m.Actors {
		for j, tg := range m.Targets {
			w, ok := want[a][tg]
			if got.Present(i, j) != ok || math.Float64bits(got.At(i, j)) != math.Float64bits(w) {
				t.Fatalf("%s σ=%v seed %d: cell (%s, %s) = %v (present %v), reference %v (present %v)",
					label, sigma, seed, a, tg, got.At(i, j), got.Present(i, j), w, ok)
			}
			if ok && m.At(i, j) == 0 {
				zeros++
			}
		}
	}
	if rsGot.Uint64() != rsWant.Uint64() {
		t.Fatalf("%s σ=%v seed %d: Perturbed and the reference drew different counts", label, sigma, seed)
	}
	return zeros
}

// truthMatrix is the outage matrix of g under six random owners, with every
// fifth asset unowned so the market row carries cells too.
func truthMatrix(t testing.TB, g *graph.Graph) *Matrix {
	t.Helper()
	o := actors.RandomOwnership(g, 6, rng.New(9))
	for j, e := range g.Edges {
		if j%5 == 0 {
			delete(o, e.ID)
		}
	}
	m, err := (&Analysis{Graph: g, Ownership: o}).ComputeMatrix(nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPerturbedMatchesReference holds the index-keyed draw to the map-walk
// reference on the stressed westgrid's outage matrix and, outside -short,
// the 64-region national grid's, explicit-zero cells included.
func TestPerturbedMatchesReference(t *testing.T) {
	grids := map[string]func() (*graph.Graph, error){
		"westgrid_stressed": func() (*graph.Graph, error) { return westgrid.Build(westgrid.Options{Stress: true}), nil },
	}
	if !testing.Short() {
		grids["national"] = func() (*graph.Graph, error) {
			return gridgen.Build(gridgen.Config{Regions: 64, Seed: 3, Tier: gridgen.TierNational, Stress: true})
		}
	}
	for name, build := range grids {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		m := truthMatrix(t, g)
		zeros := 0
		for _, sigma := range []float64{0.05, 0.2, 0.5} {
			for seed := uint64(1); seed <= 3; seed++ {
				zeros += checkPerturbed(t, name, m, sigma, seed)
			}
		}
		if zeros == 0 {
			t.Errorf("%s: no present cell holds an explicit 0; the comparison does not cover them", name)
		}
	}
}

// TestPerturbed: σ = 0 is exact, σ > 0 perturbs, zeros stay zero, absent
// cells stay absent, and the input is untouched.
func TestPerturbed(t *testing.T) {
	cells := map[[2]int]float64{{0, 0}: 10, {0, 1}: -5, {1, 0}: 0} // a2/t2 absent
	m, err := NewMatrix([]string{"a1", "a2"}, []string{"t1", "t2"}, func(i, j int) (float64, bool) {
		v, ok := cells[[2]int{i, j}]
		return v, ok
	})
	if err != nil {
		t.Fatal(err)
	}
	out := m.Perturbed(0, rng.New(1))
	if out.Get("a1", "t1") != 10 || out.Get("a1", "t2") != -5 || out.Get("a2", "t1") != 0 {
		t.Fatal("σ=0 matrix must be exact")
	}
	out2 := m.Perturbed(0.3, rng.New(1))
	if out2.Get("a1", "t1") == 10 {
		t.Fatal("σ>0 left value unperturbed")
	}
	// Zero values stay zero under multiplicative noise.
	if out2.Get("a2", "t1") != 0 || !out2.Present(1, 0) {
		t.Fatal("zero entry must stay a present zero")
	}
	if out2.Present(1, 1) || out2.Get("a2", "t2") != 0 {
		t.Fatal("absent entry must stay absent")
	}
	if m.Get("a1", "t1") != 10 {
		t.Fatal("input matrix mutated")
	}
}

// FuzzPerturbAgreement holds Perturbed to the reference on random actor and
// target sets, random presence (explicit zeros included), σ and seed.
func FuzzPerturbAgreement(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint64(1), 0.2, uint64(7))
	f.Add(uint8(1), uint8(1), uint64(2), 0.0, uint64(1))
	f.Add(uint8(9), uint8(30), uint64(3), 1.5, uint64(11))
	f.Fuzz(func(t *testing.T, nA, nT uint8, shape uint64, sigma float64, seed uint64) {
		if math.IsNaN(sigma) || math.IsInf(sigma, 0) {
			t.Skip()
		}
		rs := rng.New(shape)
		ids := func(prefix string, n int) []string { // n distinct IDs, unsorted
			out := make([]string, n)
			for k, v := range rs.Perm(3 * n)[:n] {
				out[k] = fmt.Sprintf("%s%d", prefix, v)
			}
			return out
		}
		m, err := NewMatrix(ids("a", int(nA%12)), ids("t", int(nT%48)), func(i, j int) (float64, bool) {
			switch rs.Intn(4) {
			case 0:
				return 0, false
			case 1:
				return 0, true
			default:
				return 10 * rs.NormFloat64(), true
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		checkPerturbed(t, "fuzz", m, sigma, seed)
	})
}
