// Per-solve span traces: one record per instrumented solve or trial, kept in
// a bounded ring so a million-solve sweep holds the most recent window
// rather than growing without bound. Durations come from the registry clock,
// so tests with a fake clock get deterministic traces.
//
// Spans form trees: StartSpanCtx reads the active parent span out of a
// context.Context and threads the child back in, so a trial's span parents
// the round it plays, which parents the adversary search, which parents the
// MILP relaxations, which parent the simplex solves. The committed records
// carry (ID, ParentID, StartNS), which is exactly what the Chrome
// trace_event export (trace.go) needs to render the run as nested tracks.
package telemetry

import (
	"context"
	"sync"
	"time"
)

// spanCap bounds the ring by default. At ~150 bytes a record this caps
// trace memory near 75 KiB regardless of sweep length; observability runs
// that want the full tree raise it with SetSpanCapacity.
const spanCap = 512

// SpanRecord is one completed span as exported in snapshots.
type SpanRecord struct {
	// ID is the span's registry-unique identifier (1-based; assigned in
	// start order).
	ID uint64 `json:"id"`
	// ParentID is the ID of the enclosing span, or 0 for a root span.
	// Parents are threaded through context.Context by StartSpanCtx.
	ParentID uint64 `json:"parent_id,omitempty"`
	// RemoteParent is the 16-hex *global* ID of a parent span in another
	// process (inherited via SetTraceContext or set per span), recorded on
	// root spans so a fleet merge can stitch process trees together. Empty
	// when the span has a local parent or the process is a trace root.
	RemoteParent string `json:"remote_parent,omitempty"`
	// Stage names the instrumented operation ("lp.solve", "milp.solve",
	// "adversary.solve", "experiments.trial", "experiments.point").
	Stage string `json:"stage"`
	// Problem is the solve's problem or trial label (may be empty).
	Problem string `json:"problem,omitempty"`
	// Work is the solve's logical work: simplex pivots, branch-and-bound
	// nodes, or trials, depending on Stage.
	Work int64 `json:"work"`
	// Degradations lists resilience fallbacks applied during the span
	// ("error: ...", "watchdog: ...").
	Degradations []string `json:"degradations,omitempty"`
	// Retries counts retry/requeue attempts consumed by the span.
	Retries int `json:"retries,omitempty"`
	// StartNS is the span's start instant on the registry's timeline
	// (UnixNano): the wall time of the registry's first span plus the
	// monotonic time since it, so exported spans order and nest without
	// reference to the ring's insertion order, across wall-clock steps
	// too.
	StartNS int64 `json:"start_ns"`
	// DurationNS is the span's wall-clock duration on the registry clock.
	DurationNS int64 `json:"duration_ns"`
}

// A Span is an in-flight trace record. A nil *Span (tracing disabled) is
// valid: every method is a no-op, so instrumentation sites never branch.
type Span struct {
	r     *Registry
	start time.Time

	// mu guards rec: a span threaded through a context can receive
	// degradations/retries from code running in worker goroutines.
	mu  sync.Mutex
	rec SpanRecord
}

// newSpan allocates an in-flight span with a fresh ID.
func (r *Registry) newSpan(stage, problem string) *Span {
	start := r.Now()
	return &Span{
		r:     r,
		start: start,
		rec: SpanRecord{
			ID:      r.spanID.Add(1),
			Stage:   stage,
			Problem: problem,
			StartNS: r.instant(start),
		},
	}
}

// monoRef is a reading of the process clock taken at start-up. A reading's
// offset from it is measured on the monotonic clock when the reading
// carries one, as time.Now's readings do, and on the wall clock otherwise.
var monoRef = time.Now()

// timeline is one time axis for a registry's spans: the wall time of its
// first reading, its epoch, plus each reading's monotonic offset from that
// reading. The wall clock is read once, so a wall-clock step between two
// spans moves neither one's start relative to the other's, and a span that
// started after another, by the monotonic clock its durations are measured
// on, starts after it on the timeline too.
type timeline struct {
	once sync.Once
	wall int64         // Unix nanoseconds of the epoch
	mono time.Duration // monotonic reading of the epoch
}

// at returns the instant, in Unix nanoseconds, of a reading at wall time
// wall (Unix nanoseconds) with monotonic reading mono. The first reading
// fixes the epoch.
func (tl *timeline) at(wall int64, mono time.Duration) int64 {
	tl.once.Do(func() { tl.wall, tl.mono = wall, mono })
	return tl.wall + int64(mono-tl.mono)
}

// instant places t, a reading of the registry clock, on the registry's
// timeline.
func (r *Registry) instant(t time.Time) int64 {
	return r.timeline.Load().at(t.UnixNano(), t.Sub(monoRef))
}

// StartSpan opens a root span when tracing is enabled, else returns nil.
// Root spans inherit the registry's remote parent (if a trace context was
// adopted from a supervisor or an HTTP caller), so they nest under the
// launching process's span after a fleet merge.
func (r *Registry) StartSpan(stage, problem string) *Span {
	if r == nil || !r.tracing.Load() {
		return nil
	}
	sp := r.newSpan(stage, problem)
	sp.rec.RemoteParent = r.remoteParentID()
	return sp
}

// spanCtxKey keys the active span in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp as the active parent span. A nil
// span returns ctx unchanged; a nil ctx is promoted to context.Background.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the active span carried by ctx, or nil. Nil-safe
// on a nil context.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpanCtx opens a span parented to the active span in ctx (if any) and
// returns the span plus a derived context carrying it, so solves started
// under the returned context become its children. With tracing disabled it
// returns (nil, ctx) — the instrumentation-site cost is one atomic load.
func (r *Registry) StartSpanCtx(ctx context.Context, stage, problem string) (*Span, context.Context) {
	if r == nil || !r.tracing.Load() {
		return nil, ctx
	}
	sp := r.newSpan(stage, problem)
	if parent := SpanFromContext(ctx); parent != nil {
		sp.rec.ParentID = parent.rec.ID
	} else {
		sp.rec.RemoteParent = r.remoteParentID()
	}
	return sp, ContextWithSpan(ctx, sp)
}

// SetWork records the span's logical work (pivots, nodes, trials).
func (s *Span) SetWork(n int64) {
	if s != nil {
		s.mu.Lock()
		s.rec.Work = n
		s.mu.Unlock()
	}
}

// AddDegradations appends resilience-fallback records.
func (s *Span) AddDegradations(d ...string) {
	if s != nil && len(d) > 0 {
		s.mu.Lock()
		s.rec.Degradations = append(s.rec.Degradations, d...)
		s.mu.Unlock()
	}
}

// SetRetries records how many retries/requeues the span consumed.
func (s *Span) SetRetries(n int) {
	if s != nil {
		s.mu.Lock()
		s.rec.Retries = n
		s.mu.Unlock()
	}
}

// AddRetries adds n to the span's retry count (used by the checkpoint layer,
// which learns about retries one at a time).
func (s *Span) AddRetries(n int) {
	if s != nil {
		s.mu.Lock()
		s.rec.Retries += n
		s.mu.Unlock()
	}
}

// SetRemoteParent overrides the span's cross-process parent with a 16-hex
// global span ID — how cpsservd parents a request span under the calling
// client's span from its traceparent header, per request rather than per
// process. A local parent link, when present, takes precedence in exports.
func (s *Span) SetRemoteParent(gid string) {
	if s != nil && gid != "" {
		s.mu.Lock()
		s.rec.RemoteParent = gid
		s.mu.Unlock()
	}
}

// ID returns the span's identifier (0 for a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.rec.ID
}

// End stamps the duration and commits the record to the registry's ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.DurationNS = s.r.Now().Sub(s.start).Nanoseconds()
	rec := s.rec
	s.mu.Unlock()
	s.r.spans.add(rec)
}

// spanRing is a bounded FIFO of completed spans. Appends are rare relative
// to counter updates (one per solve, not per pivot), so a mutex suffices.
type spanRing struct {
	mu      sync.Mutex
	cap     int // 0 means spanCap
	buf     []SpanRecord
	next    int // insertion cursor once the ring is full
	dropped int64
}

func (r *spanRing) capacity() int {
	if r.cap > 0 {
		return r.cap
	}
	return spanCap
}

func (r *spanRing) add(rec SpanRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) < r.capacity() {
		r.buf = append(r.buf, rec)
		return
	}
	r.buf[r.next] = rec
	r.next = (r.next + 1) % r.capacity()
	r.dropped++
}

// records returns the retained spans oldest-first plus the overwrite count.
func (r *spanRing) records() ([]SpanRecord, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out, r.dropped
}

func (r *spanRing) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = nil
	r.next = 0
	r.dropped = 0
}

func (r *spanRing) setCap(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cap = n
	r.buf = nil
	r.next = 0
	r.dropped = 0
}

// SetSpanCapacity resizes the span ring (dropping retained spans) so
// observability runs can keep a full trace tree instead of the default
// 512-span window. n ≤ 0 restores the default.
func (r *Registry) SetSpanCapacity(n int) {
	if n <= 0 {
		n = 0
	}
	r.spans.setCap(n)
}
