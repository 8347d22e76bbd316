// Package telemetry is the solver pipeline's quantitative flight recorder:
// lock-free counters, fixed-edge histograms, and per-solve span traces that
// every solver layer (lp, milp, adversary, defense, parallel, checkpoint,
// experiments, repeated) feeds as it works.
//
// The design contract is determinism first: counters and histograms record
// *logical* work — pivots, nodes, evaluations, retries, trials — whose totals
// are pure functions of the seeded inputs, so two identical runs produce
// byte-identical snapshots of the "counters" and "histograms" sections no
// matter how trials interleave across workers (atomic integer addition is
// commutative; nothing order-dependent is stored). Wall-clock measurements
// (queue waits, task durations) live in a separate "timings" section, and
// span durations come from an injectable clock, so tests pin them too.
//
// Exports, cheapest to richest:
//
//   - Snapshot / WriteSnapshot: a JSON dump, written atomically through
//     internal/atomicio at sweep end (cpsexp -metrics).
//   - expvar: PublishExpvar registers the full snapshot under
//     "cpsguard.telemetry" for any expvar scraper.
//   - ServeDebug: an opt-in HTTP endpoint (cpsexp -debug-addr) serving
//     /metrics alongside the standard /debug/pprof and /debug/vars.
//
// Hot-path cost is one atomic add per event. Instrumented packages declare
// their instruments once at init (NewCounter / NewHistogram / NewTiming) and
// never pay a map lookup per event. Span tracing is off by default
// (StartSpan returns a nil, no-op span) and enabled explicitly.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A Counter is a monotonically increasing, lock-free event counter. All
// methods are nil-safe so call sites never need guards.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name reports the registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Registry holds a process's instruments. Most code uses the package-level
// Default registry through NewCounter / NewHistogram / NewTiming; separate
// registries exist so tests can isolate themselves completely.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	timings  map[string]*Histogram
	spans    spanRing
	spanID   atomic.Uint64
	tracing  atomic.Bool
	clock    atomic.Pointer[func() time.Time]
	// timeline places span instants (span.go); SetClock starts a new one.
	timeline atomic.Pointer[timeline]

	// Trace identity (tracecontext.go): which distributed trace this
	// process's spans belong to, the inherited cross-process parent for
	// root spans, the random base that makes local span IDs globally
	// unique, and the process label for trace exports. Guarded by its own
	// mutex so span creation never contends with instrument registration.
	traceMu      sync.Mutex
	traceID      string
	remoteParent string
	spanBase     uint64
	label        string
}

// NewRegistry returns an empty registry using the real clock.
func NewRegistry() *Registry {
	r := &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		timings:  map[string]*Histogram{},
	}
	r.timeline.Store(&timeline{})
	return r
}

var def = NewRegistry()

// Default returns the process-wide registry every instrumented package
// records into.
func Default() *Registry { return def }

// Counter returns the registry's counter with the given name, creating it on
// first use. Registration is locked; subsequent Add calls are lock-free.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Histogram returns the registry's histogram with the given name and bucket
// edges, creating it on first use. Edges must be ascending; re-registration
// with different edges keeps the original (first writer wins — edges are part
// of the documented schema, not per-call-site configuration).
func (r *Registry) Histogram(name string, edges []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := newHistogram(name, edges)
	r.hists[name] = h
	return h
}

// Timing returns the registry's wall-clock histogram (nanosecond values on
// the standard latency edges), creating it on first use. Timings are
// reported in the snapshot's separate "timings" section because their
// contents depend on the machine and scheduling, not just the inputs.
func (r *Registry) Timing(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.timings[name]; ok {
		return h
	}
	h := newHistogram(name, TimingEdges)
	r.timings[name] = h
	return h
}

// SetClock replaces the registry's time source (nil restores time.Now) and
// starts a new span timeline, whose epoch is the next span's start. Tests
// install a fake clock so span durations — the only time-derived values on
// the deterministic path — are reproducible.
func (r *Registry) SetClock(now func() time.Time) {
	r.timeline.Store(&timeline{})
	if now == nil {
		r.clock.Store(nil)
		return
	}
	r.clock.Store(&now)
}

// Now reads the registry's clock.
func (r *Registry) Now() time.Time {
	if p := r.clock.Load(); p != nil {
		return (*p)()
	}
	return time.Now()
}

// EnableTracing switches span collection on or off (default off). With
// tracing off, StartSpan returns a nil span whose methods are no-ops, so
// call sites stay unconditional.
func (r *Registry) EnableTracing(on bool) { r.tracing.Store(on) }

// Tracing reports whether span collection is enabled.
func (r *Registry) Tracing() bool { return r.tracing.Load() }

// Reset zeroes every counter and histogram and drops collected spans. The
// instruments themselves survive (package-level instrument variables stay
// valid); only their state clears. Benchmarks use this to measure per-stage
// deltas.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
	for _, h := range r.timings {
		h.reset()
	}
	r.spans.reset()
	r.spanID.Store(0)
}

// counterNames returns the registered counter names, sorted.
func (r *Registry) counterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// InstrumentNames returns every registered counter, histogram, and timing
// name, each list sorted. This is the surface the metric-name lint walks:
// any name an instrumented package registers shows up here, so the lint can
// enforce the exposition-safe charset over the whole fleet of instruments.
func (r *Registry) InstrumentNames() (counters, histograms, timings []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	counters = r.counterNames()
	histograms = make([]string, 0, len(r.hists))
	for n := range r.hists {
		histograms = append(histograms, n)
	}
	sort.Strings(histograms)
	timings = make([]string, 0, len(r.timings))
	for n := range r.timings {
		timings = append(timings, n)
	}
	sort.Strings(timings)
	return counters, histograms, timings
}

// NewCounter registers (or fetches) a counter in the Default registry.
// Instrumented packages call this once per instrument at init.
func NewCounter(name string) *Counter { return def.Counter(name) }

// NewHistogram registers (or fetches) a histogram in the Default registry.
func NewHistogram(name string, edges []int64) *Histogram { return def.Histogram(name, edges) }

// NewTiming registers (or fetches) a wall-clock histogram in the Default
// registry.
func NewTiming(name string) *Histogram { return def.Timing(name) }
