package experiments

import (
	"fmt"
	"sort"

	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/impact"
	"cpsguard/internal/secure"
	"cpsguard/internal/stats"
	"cpsguard/internal/westgrid"
)

// SecurityPremium quantifies the SCUC-style trade-off the paper's market
// model omits (Section IV-A): securing the k most damaging corridors with
// a preventive N-1 dispatch costs base-case welfare (the "security
// premium") but preserves service when those corridors are attacked.
//
// The served-fraction series use a short-term response model: immediately
// after an outage, generators can curtail but cannot increase output, and
// flows re-route freely; the metric is the fraction of the pre-attack load
// still servable. The secured dispatch pre-positions generation so that at
// least MinService (90%) survives by construction; the unsecured
// welfare-optimal dispatch holds no such margin.
func SecurityPremium(cfg Config) (*stats.Table, error) {
	g := cfg.graph()
	base, err := flow.Dispatch(g)
	if err != nil {
		return nil, err
	}
	// Rank long-haul corridors by re-dispatch attack damage.
	corridors := westgrid.LongHaulAssets(g)
	if len(corridors) == 0 {
		corridors = g.AssetIDs()
	}
	type dmg struct {
		id     string
		damage float64
	}
	var ranked []dmg
	for _, id := range corridors {
		attacked, err := impact.Apply(g, impact.Outage(id))
		if err != nil {
			return nil, err
		}
		r, err := flow.Dispatch(attacked)
		if err != nil {
			return nil, err
		}
		ranked = append(ranked, dmg{id, base.Welfare - r.Welfare})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].damage != ranked[j].damage {
			return ranked[i].damage > ranked[j].damage
		}
		return ranked[i].id < ranked[j].id
	})

	t := &stats.Table{
		Title:  "Ext D: N-1 security premium vs post-attack service",
		XLabel: "secured corridors k",
		YLabel: "premium in $k/day; service in %",
	}
	premium := t.AddSeries("security premium")
	securedSvc := t.AddSeries("secured: worst post-attack service %")
	unsecuredSvc := t.AddSeries("unsecured: worst post-attack service %")

	for _, k := range []int{0, 1, 2, 4} {
		if k > len(ranked) {
			break
		}
		if k == 0 {
			premium.Add(0, 0, 0)
			securedSvc.Add(0, 100, 0)
			unsecuredSvc.Add(0, 100, 0)
			continue
		}
		ids := make([]string, 0, k)
		for _, d := range ranked[:k] {
			ids = append(ids, d.id)
		}
		res, err := secure.Dispatch(secure.Config{
			Graph:         g,
			Contingencies: ids,
			MinService:    0.9,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: securing %v: %w", ids, err)
		}
		worstSec, worstUnsec := 100.0, 100.0
		secGen, secServed := byVertex(g, res.Gen), sumLoad(g, res.Load)
		for _, id := range ids {
			if s := servedFraction(g, secGen, secServed, id); s < worstSec {
				worstSec = s
			}
			if s := servedFraction(g, base.Gen, base.Served(), id); s < worstUnsec {
				worstUnsec = s
			}
		}
		premium.Add(float64(k), res.SecurityPremium, 0)
		securedSvc.Add(float64(k), worstSec, 0)
		unsecuredSvc.Add(float64(k), worstUnsec, 0)
	}
	return t, nil
}

// sumLoad totals load, keyed by vertex ID, in g's vertex order.
func sumLoad(g *graph.Graph, load map[string]float64) float64 {
	t := 0.0
	for _, v := range g.Vertices {
		t += load[v.ID]
	}
	return t
}

// byVertex lays m, keyed by vertex ID, out in g's vertex order.
func byVertex(g *graph.Graph, m map[string]float64) []float64 {
	out := make([]float64, len(g.Vertices))
	for i, v := range g.Vertices {
		out[i] = m[v.ID]
	}
	return out
}

// servedFraction measures short-term service continuity after an outage:
// generation may only curtail from baseGen, the attacked edge is dead, and
// the system maximizes delivered load. baseGen is indexed like g.Vertices.
// Returns percent of baseServed.
func servedFraction(g *graph.Graph, baseGen []float64, baseServed float64, outageID string) float64 {
	if baseServed <= 0 {
		return 100
	}
	c := g.Clone()
	for i := range c.Vertices {
		v := &c.Vertices[i]
		if v.Supply > 0 {
			v.Supply = baseGen[i] // curtail-only
		}
		v.SupplyCost = 0
		if v.Demand > 0 {
			v.Price = 1 // maximize raw service
		}
	}
	for i := range c.Edges {
		c.Edges[i].Cost = 0
		if c.Edges[i].ID == outageID {
			c.Edges[i].Capacity = 0
		}
	}
	r, err := flow.Dispatch(c)
	if err != nil {
		return 0
	}
	return 100 * r.Served() / baseServed
}
