package telemetry

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestStartSpanCtxBuildsTree(t *testing.T) {
	r := NewRegistry()
	r.SetClock(fakeClock(time.Millisecond))
	r.EnableTracing(true)

	root, ctx := r.StartSpanCtx(context.Background(), "experiments.trial", "t0")
	if root == nil {
		t.Fatal("tracing enabled but StartSpanCtx returned nil")
	}
	mid, mctx := r.StartSpanCtx(ctx, "milp.solve", "relax")
	leaf, _ := r.StartSpanCtx(mctx, "lp.solve", "relax")
	leaf.End()
	mid.End()
	root.End()

	spans, _ := r.spans.records()
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	byStage := map[string]SpanRecord{}
	for _, s := range spans {
		byStage[s.Stage] = s
	}
	if byStage["experiments.trial"].ParentID != 0 {
		t.Fatalf("root has parent %d", byStage["experiments.trial"].ParentID)
	}
	if got, want := byStage["milp.solve"].ParentID, byStage["experiments.trial"].ID; got != want {
		t.Fatalf("milp parent = %d, want %d", got, want)
	}
	if got, want := byStage["lp.solve"].ParentID, byStage["milp.solve"].ID; got != want {
		t.Fatalf("lp parent = %d, want %d", got, want)
	}
	if byStage["lp.solve"].StartNS < byStage["experiments.trial"].StartNS {
		t.Fatal("child starts before its root")
	}
}

func TestStartSpanCtxDisabledIsFree(t *testing.T) {
	r := NewRegistry()
	ctx := context.Background()
	sp, out := r.StartSpanCtx(ctx, "lp.solve", "x")
	if sp != nil {
		t.Fatal("tracing disabled but StartSpanCtx returned a span")
	}
	if out != ctx {
		t.Fatal("disabled StartSpanCtx rewrapped the context")
	}
	// Nil contexts and nil spans are tolerated end to end.
	sp2, out2 := r.StartSpanCtx(nil, "lp.solve", "x")
	if sp2 != nil || out2 != nil {
		t.Fatal("nil ctx with tracing off should pass through")
	}
	if SpanFromContext(nil) != nil {
		t.Fatal("SpanFromContext(nil) != nil")
	}
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("ContextWithSpan with nil span rewrapped the context")
	}
	var s *Span
	s.AddRetries(1)
	if s.ID() != 0 {
		t.Fatal("nil span ID != 0")
	}
}

func TestSetSpanCapacity(t *testing.T) {
	r := NewRegistry()
	r.EnableTracing(true)
	r.SetSpanCapacity(4)
	for i := 0; i < 10; i++ {
		sp := r.StartSpan("s", "")
		sp.End()
	}
	got := r.Snapshot(SnapshotOptions{Spans: true})
	if len(got.Spans) != 4 || got.SpansDropped != 6 {
		t.Fatalf("retained/dropped = %d/%d, want 4/6", len(got.Spans), got.SpansDropped)
	}
	r.SetSpanCapacity(0) // restore default
	for i := 0; i < spanCap+1; i++ {
		sp := r.StartSpan("s", "")
		sp.End()
	}
	got = r.Snapshot(SnapshotOptions{Spans: true})
	if len(got.Spans) != spanCap {
		t.Fatalf("default capacity not restored: retained %d", len(got.Spans))
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := NewRegistry()
	r.SetClock(fakeClock(time.Millisecond))
	r.EnableTracing(true)

	root, ctx := r.StartSpanCtx(context.Background(), "experiments.trial", "t0")
	child, _ := r.StartSpanCtx(ctx, "lp.solve", "dispatch")
	child.SetWork(42)
	child.AddDegradations("watchdog: test")
	child.End()
	root.SetRetries(1)
	root.End()
	lone := r.StartSpan("adversary.solve", "")
	lone.End()

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteChromeTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ReadChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	var meta, complete []TraceEvent
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M":
			meta = append(meta, ev)
		case "X":
			complete = append(complete, ev)
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// Two roots (trial tree + lone adversary solve) → two named tracks,
	// plus one process_name event naming the recording process.
	if len(meta) != 3 {
		t.Fatalf("metadata events = %d, want 3", len(meta))
	}
	procNames := 0
	for _, ev := range meta {
		if ev.Name == "process_name" {
			procNames++
		}
	}
	if procNames != 1 {
		t.Fatalf("process_name events = %d, want 1", procNames)
	}
	if len(complete) != 3 {
		t.Fatalf("complete events = %d, want 3", len(complete))
	}
	byName := map[string]TraceEvent{}
	for _, ev := range complete {
		byName[ev.Name] = ev
	}
	trial, lp := byName["experiments.trial"], byName["lp.solve"]
	if trial.TID != lp.TID {
		t.Fatalf("child on different track: trial tid %d, lp tid %d", trial.TID, lp.TID)
	}
	if byName["adversary.solve"].TID == trial.TID {
		t.Fatal("independent root shares the trial's track")
	}
	if lp.Cat != "lp" {
		t.Fatalf("category = %q, want lp", lp.Cat)
	}
	// Child nests within the parent on the timeline.
	if lp.TS < trial.TS || lp.TS+lp.Dur > trial.TS+trial.Dur+1e-9 {
		t.Fatalf("child [%v,%v] escapes parent [%v,%v]", lp.TS, lp.TS+lp.Dur, trial.TS, trial.TS+trial.Dur)
	}
	if w, ok := lp.Args["work"].(float64); !ok || w != 42 {
		t.Fatalf("lp args work = %v", lp.Args["work"])
	}
	if _, ok := lp.Args["parent"]; !ok {
		t.Fatal("child event missing parent arg")
	}
	// The file is a valid JSON object with the envelope fields Perfetto
	// expects.
	var env map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if _, ok := env["traceEvents"]; !ok {
		t.Fatal("missing traceEvents key")
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	s := &Snapshot{}
	ct := s.ChromeTrace()
	if len(ct.TraceEvents) != 0 {
		t.Fatalf("empty snapshot produced %d events", len(ct.TraceEvents))
	}
	if _, err := ct.MarshalIndented(); err != nil {
		t.Fatal(err)
	}
}

func TestChromeTraceOrphanIsOwnTrack(t *testing.T) {
	// A child whose parent was evicted from the ring becomes its own root
	// track instead of vanishing.
	s := &Snapshot{Spans: []SpanRecord{
		{ID: 7, ParentID: 3, Stage: "lp.solve", StartNS: 10, DurationNS: 5},
	}}
	ct := s.ChromeTrace()
	if len(ct.TraceEvents) != 3 {
		t.Fatalf("events = %d, want process_name + thread_name + span", len(ct.TraceEvents))
	}
}
