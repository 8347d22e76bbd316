// Package graph defines the directed flow-graph model of an energy-based
// cyber-physical system, following Section II-D of Wood, Bagchi & Hussain,
// "Optimizing Defensive Investments in Energy-Based Cyber-Physical Systems"
// (IPPS 2015).
//
// Vertices are hubs (electrical buses or gas pipe headers). A vertex may act
// as a source (generator) with a maximum supply s(v) and a per-unit
// production cost, and/or a sink (load) with a maximum demand d(v) and a
// per-unit price consumers pay. Edges carry energy between hubs and have a
// capacity c(u,v), a fractional transmission loss l(u,v) ∈ [0,1), and a unit
// transport cost a(u,v) (which may be negative to express revenues, exactly
// as the paper allows).
//
// In the paper's notation (Table I): a(u,v)=Edge.Cost, c(u,v)=Edge.Capacity,
// l(u,v)=Edge.Loss, s(v)=Vertex.Supply, d(v)=Vertex.Demand; L is the set of
// vertices with Demand>0 and G the set with Supply>0.
package graph

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind classifies an edge by the physical asset it represents. It has no
// effect on dispatch; it exists so attack/defense layers can reason about
// asset classes (e.g. "only pipelines are attackable in this scenario").
type Kind string

// Edge kinds used by the westgrid model. User models may define their own.
const (
	KindTransmission Kind = "transmission" // long-haul electric line
	KindPipeline     Kind = "pipeline"     // long-haul gas pipeline
	KindGeneration   Kind = "generation"   // generator-to-hub injection
	KindDistribution Kind = "distribution" // hub-to-consumer delivery
	KindConversion   Kind = "conversion"   // gas-to-electric coupling
	KindImport       Kind = "import"       // out-of-model supply
)

// Vertex is one hub in the system.
type Vertex struct {
	ID string `json:"id"`
	// Supply is the maximum injection s(v) available at this vertex
	// (0 for pure hubs and loads).
	Supply float64 `json:"supply,omitempty"`
	// SupplyCost is the per-unit production cost at this vertex.
	SupplyCost float64 `json:"supply_cost,omitempty"`
	// Demand is the maximum absorption d(v) at this vertex.
	Demand float64 `json:"demand,omitempty"`
	// Price is the per-unit revenue collected for energy delivered here.
	Price float64 `json:"price,omitempty"`
	// Lat, Lon locate the hub (used only for distance-derived losses).
	Lat float64 `json:"lat,omitempty"`
	Lon float64 `json:"lon,omitempty"`
}

// Edge is one directed asset connecting two hubs.
type Edge struct {
	ID       string  `json:"id"`
	From     string  `json:"from"`
	To       string  `json:"to"`
	Capacity float64 `json:"capacity"`
	// Loss is the fractional loss l(u,v) ∈ [0,1): delivering f units at
	// To draws f/(1−Loss) units at From.
	Loss float64 `json:"loss,omitempty"`
	// Cost is the unit transport cost a(u,v); negative values represent
	// revenues per the paper.
	Cost float64 `json:"cost,omitempty"`
	// Owner is the actor that owns this asset ("" = unassigned; the
	// actors package reassigns owners per experiment trial).
	Owner string `json:"owner,omitempty"`
	// Kind classifies the asset (see Kind).
	Kind Kind `json:"kind,omitempty"`
}

// Graph is an energy flow network. Construct with New and the Add methods,
// or unmarshal from JSON; call Validate before dispatching.
type Graph struct {
	Name     string   `json:"name,omitempty"`
	Vertices []Vertex `json:"vertices"`
	Edges    []Edge   `json:"edges"`

	vIndex map[string]int
	eIndex map[string]int
}

// New returns an empty named graph.
func New(name string) *Graph {
	return &Graph{Name: name, vIndex: map[string]int{}, eIndex: map[string]int{}}
}

// ErrValidation is wrapped by all Validate failures.
var ErrValidation = errors.New("graph: validation failed")

// AddVertex appends a vertex. Duplicate IDs are rejected.
func (g *Graph) AddVertex(v Vertex) error {
	g.ensureIndex()
	if v.ID == "" {
		return fmt.Errorf("%w: vertex with empty ID", ErrValidation)
	}
	if _, dup := g.vIndex[v.ID]; dup {
		return fmt.Errorf("%w: duplicate vertex %q", ErrValidation, v.ID)
	}
	g.vIndex[v.ID] = len(g.Vertices)
	g.Vertices = append(g.Vertices, v)
	return nil
}

// MustAddVertex is AddVertex, panicking on error. Intended for model
// builders with statically-known IDs.
func (g *Graph) MustAddVertex(v Vertex) {
	if err := g.AddVertex(v); err != nil {
		panic(err)
	}
}

// AddEdge appends an edge. Both endpoints must already exist.
func (g *Graph) AddEdge(e Edge) error {
	g.ensureIndex()
	if e.ID == "" {
		return fmt.Errorf("%w: edge with empty ID", ErrValidation)
	}
	if _, dup := g.eIndex[e.ID]; dup {
		return fmt.Errorf("%w: duplicate edge %q", ErrValidation, e.ID)
	}
	if _, ok := g.vIndex[e.From]; !ok {
		return fmt.Errorf("%w: edge %q references unknown vertex %q", ErrValidation, e.ID, e.From)
	}
	if _, ok := g.vIndex[e.To]; !ok {
		return fmt.Errorf("%w: edge %q references unknown vertex %q", ErrValidation, e.ID, e.To)
	}
	g.eIndex[e.ID] = len(g.Edges)
	g.Edges = append(g.Edges, e)
	return nil
}

// MustAddEdge is AddEdge, panicking on error.
func (g *Graph) MustAddEdge(e Edge) {
	if err := g.AddEdge(e); err != nil {
		panic(err)
	}
}

func (g *Graph) ensureIndex() {
	if g.vIndex != nil {
		return
	}
	g.vIndex = make(map[string]int, len(g.Vertices))
	for i, v := range g.Vertices {
		g.vIndex[v.ID] = i
	}
	g.eIndex = make(map[string]int, len(g.Edges))
	for i, e := range g.Edges {
		g.eIndex[e.ID] = i
	}
}

// VertexIndex returns the position of vertex id, or -1.
func (g *Graph) VertexIndex(id string) int {
	g.ensureIndex()
	if i, ok := g.vIndex[id]; ok {
		return i
	}
	return -1
}

// EdgeIndex returns the position of edge id, or -1.
func (g *Graph) EdgeIndex(id string) int {
	g.ensureIndex()
	if i, ok := g.eIndex[id]; ok {
		return i
	}
	return -1
}

// Vertex returns the vertex with the given ID, or nil.
func (g *Graph) Vertex(id string) *Vertex {
	if i := g.VertexIndex(id); i >= 0 {
		return &g.Vertices[i]
	}
	return nil
}

// Edge returns the edge with the given ID, or nil.
func (g *Graph) Edge(id string) *Edge {
	if i := g.EdgeIndex(id); i >= 0 {
		return &g.Edges[i]
	}
	return nil
}

// InEdges returns the indices of edges entering vertex id.
func (g *Graph) InEdges(id string) []int {
	var out []int
	for i := range g.Edges {
		if g.Edges[i].To == id {
			out = append(out, i)
		}
	}
	return out
}

// OutEdges returns the indices of edges leaving vertex id.
func (g *Graph) OutEdges(id string) []int {
	var out []int
	for i := range g.Edges {
		if g.Edges[i].From == id {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks structural soundness: positive-capacity edges, losses in
// [0,1), nonnegative supplies/demands, known endpoints, no NaN/Inf, and the
// paper's Eqs. 3–4 feasibility preconditions (every load's demand must be
// reachable through incident capacity, every generator's supply deliverable).
func (g *Graph) Validate() error {
	g.ensureIndex()
	seenV := make(map[string]bool, len(g.Vertices))
	for _, v := range g.Vertices {
		if v.ID == "" {
			return fmt.Errorf("%w: vertex with empty ID", ErrValidation)
		}
		if seenV[v.ID] {
			return fmt.Errorf("%w: duplicate vertex %q", ErrValidation, v.ID)
		}
		seenV[v.ID] = true
		for name, val := range map[string]float64{
			"supply": v.Supply, "supply_cost": v.SupplyCost,
			"demand": v.Demand, "price": v.Price,
		} {
			if math.IsNaN(val) || math.IsInf(val, 0) {
				return fmt.Errorf("%w: vertex %q has non-finite %s", ErrValidation, v.ID, name)
			}
		}
		if v.Supply < 0 || v.Demand < 0 {
			return fmt.Errorf("%w: vertex %q has negative supply/demand", ErrValidation, v.ID)
		}
	}
	seenE := make(map[string]bool, len(g.Edges))
	for _, e := range g.Edges {
		if e.ID == "" {
			return fmt.Errorf("%w: edge with empty ID", ErrValidation)
		}
		if seenE[e.ID] {
			return fmt.Errorf("%w: duplicate edge %q", ErrValidation, e.ID)
		}
		seenE[e.ID] = true
		if !seenV[e.From] || !seenV[e.To] {
			return fmt.Errorf("%w: edge %q has unknown endpoint", ErrValidation, e.ID)
		}
		if e.From == e.To {
			return fmt.Errorf("%w: edge %q is a self-loop", ErrValidation, e.ID)
		}
		if err := e.ValidateParams(); err != nil {
			return err
		}
	}
	return nil
}

// ValidateParams checks the edge's parameters as Validate does: a finite
// nonnegative capacity, a loss in [0,1) and a finite cost.
func (e *Edge) ValidateParams() error {
	if math.IsNaN(e.Capacity) || e.Capacity < 0 || math.IsInf(e.Capacity, 0) {
		return fmt.Errorf("%w: edge %q capacity %v", ErrValidation, e.ID, e.Capacity)
	}
	if math.IsNaN(e.Loss) || e.Loss < 0 || e.Loss >= 1 {
		return fmt.Errorf("%w: edge %q loss %v outside [0,1)", ErrValidation, e.ID, e.Loss)
	}
	if math.IsNaN(e.Cost) || math.IsInf(e.Cost, 0) {
		return fmt.Errorf("%w: edge %q cost %v", ErrValidation, e.ID, e.Cost)
	}
	return nil
}

// CheckAdequacy verifies the paper's Eqs. 3–4: each load vertex has enough
// incident inbound capacity to meet its demand, and each generator enough
// outbound capacity to ship its supply. It returns a descriptive error
// listing every violation, or nil. Unlike Validate, adequacy violations are
// warnings in practice (the LP simply dispatches less), so callers may treat
// the error as advisory.
func (g *Graph) CheckAdequacy() error {
	var problems []string
	for _, v := range g.Vertices {
		if v.Demand > 0 {
			cap := 0.0
			for _, i := range g.InEdges(v.ID) {
				cap += g.Edges[i].Capacity
			}
			if cap+v.Supply < v.Demand {
				problems = append(problems, fmt.Sprintf(
					"load %q: demand %.4g exceeds inbound capacity %.4g", v.ID, v.Demand, cap))
			}
		}
		if v.Supply > 0 {
			cap := 0.0
			for _, i := range g.OutEdges(v.ID) {
				cap += g.Edges[i].Capacity
			}
			if cap+v.Demand < v.Supply {
				problems = append(problems, fmt.Sprintf(
					"generator %q: supply %.4g exceeds outbound capacity %.4g", v.ID, v.Supply, cap))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%w: %s", ErrValidation, strings.Join(problems, "; "))
	}
	return nil
}

// Clone returns a deep copy of the graph. Perturbation layers clone before
// mutating so the ground-truth model is never touched.
func (g *Graph) Clone() *Graph {
	c := &Graph{Name: g.Name}
	c.Vertices = append([]Vertex(nil), g.Vertices...)
	c.Edges = append([]Edge(nil), g.Edges...)
	c.ensureIndex()
	return c
}

// Sources returns the IDs of vertices with positive supply (set G).
func (g *Graph) Sources() []string {
	var out []string
	for _, v := range g.Vertices {
		if v.Supply > 0 {
			out = append(out, v.ID)
		}
	}
	return out
}

// Sinks returns the IDs of vertices with positive demand (set L).
func (g *Graph) Sinks() []string {
	var out []string
	for _, v := range g.Vertices {
		if v.Demand > 0 {
			out = append(out, v.ID)
		}
	}
	return out
}

// TotalDemand sums d(v) over all sinks.
func (g *Graph) TotalDemand() float64 {
	t := 0.0
	for _, v := range g.Vertices {
		t += v.Demand
	}
	return t
}

// TotalSupply sums s(v) over all sources.
func (g *Graph) TotalSupply() float64 {
	t := 0.0
	for _, v := range g.Vertices {
		t += v.Supply
	}
	return t
}

// AssetIDs returns all edge IDs, sorted. Edges are the attackable assets in
// the paper's model ("each edge in the graph represents a physical component
// or asset", Section II-E2).
func (g *Graph) AssetIDs() []string {
	ids := make([]string, len(g.Edges))
	for i, e := range g.Edges {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

// MarshalJSON implements json.Marshaler (plain struct encoding; indexes are
// rebuilt on demand after unmarshaling).
func (g *Graph) MarshalJSON() ([]byte, error) {
	type plain Graph
	return json.Marshal((*plain)(g))
}

// UnmarshalJSON implements json.Unmarshaler.
func (g *Graph) UnmarshalJSON(data []byte) error {
	type plain Graph
	if err := json.Unmarshal(data, (*plain)(g)); err != nil {
		return err
	}
	g.vIndex, g.eIndex = nil, nil
	g.ensureIndex()
	return nil
}

// String renders a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph %q: %d vertices, %d edges, supply %.4g, demand %.4g",
		g.Name, len(g.Vertices), len(g.Edges), g.TotalSupply(), g.TotalDemand())
}
