// Package gridgen synthesizes interconnected gas-electric systems of
// arbitrary size with the same structural grammar as the paper's six-state
// model: one gas hub and one electric hub per region, per-region generation
// suites, gas imports priced below retail, gas→electric conversion, and
// long-haul corridors on a ring-plus-chords topology.
//
// The paper notes (Section II-E4) that the strategic-adversary model "can
// become computationally difficult to solve as the system grows in both
// the number of actors and targets"; this generator provides the scaling
// axis for measuring exactly that (see BenchmarkScaling* in the repository
// root), and stress-tests every solver well beyond the 86-asset evaluation
// model. Generation is deterministic per (regions, seed).
package gridgen

import (
	"fmt"
	"math"

	"cpsguard/internal/geo"
	"cpsguard/internal/graph"
	"cpsguard/internal/rng"
)

// Tier selects the synthesis scale grammar.
type Tier int8

const (
	// TierRegional is the original ring-plus-chords grammar: every region
	// couples to its two ring neighbors plus a few random chords. The
	// zero value, so existing configurations are unchanged.
	TierRegional Tier = iota
	// TierNational lays the regions out on a sparse planar mesh (a
	// near-square grid with only nearest-neighbor corridors plus a few
	// long-haul chords), the topology of a continent-scale interconnect.
	// Average hub degree stays bounded as Regions grows, so a
	// thousand-region system produces LPs whose constraint matrices are
	// overwhelmingly sparse — the regime the sparse revised simplex is built
	// for, which the solver picks on its own above 512 constraint rows (one
	// per bus; 64 regions make 513). A Regions count in the hundreds
	// yields several thousand buses (each region contributes two hubs,
	// two loads, an import terminal, and 2–4 generators).
	TierNational
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierRegional:
		return "regional"
	case TierNational:
		return "national"
	default:
		return fmt.Sprintf("Tier(%d)", int8(t))
	}
}

// Config parameterizes the synthetic system.
type Config struct {
	// Regions is the number of regions (≥ 2).
	Regions int
	// Seed drives all randomized quantities (default 1).
	Seed uint64
	// Chords adds this many long-haul shortcut corridors per network on
	// top of the base topology (default Regions/3 for TierRegional,
	// Regions/16 for TierNational).
	Chords int
	// Stress applies the paper's stress adjustments (capacity −25%,
	// demand +65%).
	Stress bool
	// Tier selects the scale grammar (default TierRegional, the original
	// ring-plus-chords synthesis; generation stays deterministic per
	// (regions, seed, tier)).
	Tier Tier
}

func (c Config) seed() uint64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 1
}

func (c Config) chords() int {
	if c.Chords > 0 {
		return c.Chords
	}
	if c.Tier == TierNational {
		// Long-haul ties are rare in a national mesh; the grid neighbors
		// carry the bulk of the coupling.
		return c.Regions / 16
	}
	return c.Regions / 3
}

// genKinds is the pool of non-gas generation technologies.
var genKinds = []struct {
	name     string
	costLo   float64
	costHi   float64
	capShare float64 // nameplate as a multiple of regional demand
}{
	{"hydro", 5, 9, 1.2},
	{"nuclear", 19, 23, 0.7},
	{"coal", 22, 28, 0.8},
	{"solar", 1, 3, 0.6},
	{"wind", 1, 2, 0.4},
	{"geothermal", 13, 16, 0.3},
}

// Build synthesizes the system.
func Build(cfg Config) (*graph.Graph, error) {
	if cfg.Regions < 2 {
		return nil, fmt.Errorf("gridgen: need ≥ 2 regions, got %d", cfg.Regions)
	}
	rs := rng.New(cfg.seed())
	name := fmt.Sprintf("gridgen-%dr-seed%d", cfg.Regions, cfg.seed())
	if cfg.Tier == TierNational {
		name = fmt.Sprintf("gridgen-national-%dr-seed%d", cfg.Regions, cfg.seed())
	}
	g := graph.New(name)

	demandScale, capScale := 1.0, 1.0
	if cfg.Stress {
		demandScale, capScale = 1.65, 0.75
	}

	region := func(i int) string { return fmt.Sprintf("R%02d", i) }
	// TierRegional regions sit on a ring; TierNational regions on a
	// near-square planar grid. Positions give distance-derived losses.
	// Both layouts draw the same per-region randomness, so the regional
	// tier's output is unchanged by the tier machinery.
	cols := int(math.Ceil(math.Sqrt(float64(cfg.Regions))))
	positions := make([]geo.Point, cfg.Regions)
	for i := range positions {
		if cfg.Tier == TierNational {
			positions[i] = geo.Point{
				Lat: 28 + 0.45*float64(i/cols) + 0.2*rs.Float64(),
				Lon: -125 + 0.55*float64(i%cols) + 0.2*rs.Float64(),
			}
		} else {
			positions[i] = geo.Point{
				Lat: 35 + 10*rs.Float64(),
				Lon: -120 + 2.5*float64(i) + rs.Float64(),
			}
		}
	}

	for i := 0; i < cfg.Regions; i++ {
		r := region(i)
		p := positions[i]
		elecDemand := 80 + rs.Float64()*600
		gasDemand := 60 + rs.Float64()*500
		elecPrice := 85 + rs.Float64()*40
		gasPrice := 28 + rs.Float64()*12

		g.MustAddVertex(graph.Vertex{ID: "gas:" + r, Lat: p.Lat, Lon: p.Lon})
		g.MustAddVertex(graph.Vertex{ID: "elec:" + r, Lat: p.Lat, Lon: p.Lon})
		g.MustAddVertex(graph.Vertex{ID: "gasload:" + r,
			Demand: gasDemand * demandScale, Price: gasPrice})
		g.MustAddVertex(graph.Vertex{ID: "elecload:" + r,
			Demand: elecDemand * demandScale, Price: elecPrice})
		g.MustAddVertex(graph.Vertex{ID: "gasimport:" + r,
			Supply: gasDemand * 4, SupplyCost: gasPrice * 0.75})

		g.MustAddEdge(graph.Edge{ID: "gasimp:" + r, From: "gasimport:" + r,
			To: "gas:" + r, Capacity: gasDemand * 4, Cost: 0.5, Kind: graph.KindImport})
		g.MustAddEdge(graph.Edge{ID: "gasdist:" + r, From: "gas:" + r,
			To: "gasload:" + r, Capacity: gasDemand * demandScale * 1.1,
			Loss: 0.01, Cost: 1, Kind: graph.KindDistribution})
		g.MustAddEdge(graph.Edge{ID: "elecdist:" + r, From: "elec:" + r,
			To: "elecload:" + r, Capacity: elecDemand * demandScale * 1.1,
			Loss: 0.02, Cost: 1.5, Kind: graph.KindDistribution})
		g.MustAddEdge(graph.Edge{ID: "g2e:" + r, From: "gas:" + r,
			To: "elec:" + r, Capacity: elecDemand * 1.2 * capScale,
			Loss: 0.48, Cost: 4, Kind: graph.KindConversion})

		// 2–4 non-gas sources per region.
		nSrc := 2 + rs.Intn(3)
		perm := rs.Perm(len(genKinds))
		for k := 0; k < nSrc; k++ {
			kind := genKinds[perm[k]]
			id := fmt.Sprintf("gen:%s:%s", r, kind.name)
			cap := elecDemand * kind.capShare * (0.6 + 0.8*rs.Float64())
			cost := kind.costLo + rs.Float64()*(kind.costHi-kind.costLo)
			g.MustAddVertex(graph.Vertex{ID: id,
				Supply: cap * capScale, SupplyCost: cost, Lat: p.Lat, Lon: p.Lon})
			g.MustAddEdge(graph.Edge{ID: id, From: id, To: "elec:" + r,
				Capacity: cap * capScale, Cost: 0.2, Kind: graph.KindGeneration})
		}
	}

	addCorridor := func(net string, a, b int, cap float64) {
		km := geo.Distance(positions[a], positions[b])
		var loss float64
		var kind graph.Kind
		prefix := ""
		if net == "gas" {
			loss = geo.PipelineLoss(km)
			kind = graph.KindPipeline
			prefix = "pipe"
		} else {
			loss = geo.TransmissionLoss(km)
			kind = graph.KindTransmission
			prefix = "tx"
		}
		for _, dir := range [2][2]int{{a, b}, {b, a}} {
			id := fmt.Sprintf("%s:%s-%s", prefix, region(dir[0]), region(dir[1]))
			if g.Edge(id) != nil {
				return // chord duplicated a ring corridor
			}
			g.MustAddEdge(graph.Edge{ID: id,
				From: net + ":" + region(dir[0]), To: net + ":" + region(dir[1]),
				Capacity: cap, Loss: loss, Cost: 1.5, Kind: kind})
		}
	}
	if cfg.Tier == TierNational {
		// Sparse planar mesh: only nearest-neighbor grid corridors, so
		// hub degree stays bounded (≤ 4 per network) no matter how large
		// the system grows.
		for i := 0; i < cfg.Regions; i++ {
			if (i+1)%cols != 0 && i+1 < cfg.Regions {
				addCorridor("elec", i, i+1, 80+rs.Float64()*200)
				addCorridor("gas", i, i+1, 100+rs.Float64()*300)
			}
			if i+cols < cfg.Regions {
				addCorridor("elec", i, i+cols, 80+rs.Float64()*200)
				addCorridor("gas", i, i+cols, 100+rs.Float64()*300)
			}
		}
		// A few long-haul interties between random far-apart regions.
		for c := 0; c < cfg.chords(); c++ {
			a, b := rs.Intn(cfg.Regions), rs.Intn(cfg.Regions)
			if a == b {
				continue
			}
			addCorridor("elec", a, b, 60+rs.Float64()*150)
			addCorridor("gas", a, b, 80+rs.Float64()*200)
		}
	} else {
		// Ring corridors for both networks.
		for i := 0; i < cfg.Regions; i++ {
			j := (i + 1) % cfg.Regions
			addCorridor("elec", i, j, 80+rs.Float64()*200)
			addCorridor("gas", i, j, 100+rs.Float64()*300)
		}
		// Chords (need ≥ 4 regions for a non-ring corridor to exist).
		if cfg.Regions >= 4 {
			for c := 0; c < cfg.chords(); c++ {
				a := rs.Intn(cfg.Regions)
				b := (a + 2 + rs.Intn(cfg.Regions-3)) % cfg.Regions
				if a == b {
					continue
				}
				addCorridor("elec", a, b, 60+rs.Float64()*150)
				addCorridor("gas", a, b, 80+rs.Float64()*200)
			}
		}
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("gridgen: generated invalid graph: %w", err)
	}
	return g, nil
}
