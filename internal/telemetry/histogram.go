// Fixed-edge histograms over integer-valued observations. Values are int64
// (pivots, nodes, nanoseconds) so the running sum is exact and commutative —
// the snapshot is byte-identical regardless of the order concurrent workers
// observed in, which float accumulation could not guarantee.
package telemetry

import "sync/atomic"

// Standard bucket edges. Documented in DESIGN.md §10; changing them is a
// schema change.
var (
	// WorkEdges buckets logical work per solve (pivots, nodes,
	// evaluations): 1, 2, 5, 10, ... decade steps up to 10^6.
	WorkEdges = []int64{1, 2, 5, 10, 20, 50, 100, 200, 500,
		1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 1_000_000}
	// TimingEdges buckets wall-clock nanoseconds: 1µs, 10µs, 100µs, 1ms,
	// 10ms, 100ms, 1s, 10s.
	TimingEdges = []int64{1_000, 10_000, 100_000, 1_000_000,
		10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000}
	// DepthEdges buckets small structural quantities (defended targets,
	// retries, requeues).
	DepthEdges = []int64{0, 1, 2, 3, 5, 10}
)

// A Histogram counts integer observations into fixed buckets. Observe is
// lock-free: one atomic add for the bucket, one for the count, one for the
// sum. Nil-safe like Counter.
type Histogram struct {
	name  string
	edges []int64
	// buckets[i] counts observations v ≤ edges[i] (and > edges[i-1]);
	// buckets[len(edges)] counts v > edges[len(edges)-1].
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64
}

func newHistogram(name string, edges []int64) *Histogram {
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("telemetry: histogram edges must be strictly ascending: " + name)
		}
	}
	h := &Histogram{name: name, edges: edges, buckets: make([]atomic.Int64, len(edges)+1)}
	h.reset()
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first edge ≥ v.
	lo, hi := 0, len(h.edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.edges[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.buckets[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	updateMin(&h.min, v)
	updateMax(&h.max, v)
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the exact sum of observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Name reports the registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(int64(^uint64(0) >> 1)) // MaxInt64
	h.max.Store(-int64(^uint64(0)>>1) - 1)
}

// snapshot copies the histogram state. Concurrent Observes may land between
// field reads; each field read is individually atomic, so the snapshot is
// only guaranteed exact when taken after the instrumented work settles
// (which is when sweeps take it).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Edges:   h.edges,
		Buckets: make([]int64, len(h.buckets)),
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	return s
}

// HistogramSnapshot is the JSON form of a histogram: Buckets[i] counts
// observations ≤ Edges[i], with one final overflow bucket.
type HistogramSnapshot struct {
	Edges   []int64 `json:"edges"`
	Buckets []int64 `json:"buckets"`
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Min     int64   `json:"min,omitempty"`
	Max     int64   `json:"max,omitempty"`
}

func updateMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func updateMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// MergeHistogramSnapshots combines two snapshots of histograms that share a
// bucket layout: elementwise bucket sums, summed count and sum, and the
// tighter min/max (respecting that Min/Max are only meaningful when the
// side's Count is positive). It returns false when the edge vectors differ —
// merging distributions binned on different scales would silently corrupt
// both, so the caller must surface the conflict instead.
func MergeHistogramSnapshots(a, b HistogramSnapshot) (HistogramSnapshot, bool) {
	if len(a.Edges) != len(b.Edges) || len(a.Buckets) != len(b.Buckets) {
		return HistogramSnapshot{}, false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return HistogramSnapshot{}, false
		}
	}
	m := HistogramSnapshot{
		Edges:   a.Edges,
		Buckets: make([]int64, len(a.Buckets)),
		Count:   a.Count + b.Count,
		Sum:     a.Sum + b.Sum,
	}
	for i := range a.Buckets {
		m.Buckets[i] = a.Buckets[i] + b.Buckets[i]
	}
	switch {
	case a.Count > 0 && b.Count > 0:
		m.Min, m.Max = min(a.Min, b.Min), max(a.Max, b.Max)
	case a.Count > 0:
		m.Min, m.Max = a.Min, a.Max
	case b.Count > 0:
		m.Min, m.Max = b.Min, b.Max
	}
	return m, true
}
