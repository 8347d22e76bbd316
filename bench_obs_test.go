// Obs bench suite (BENCH_obs.json, see bench_report_test.go): the
// Prometheus exposition render (the per-scrape cost every debug-mux scrape
// pays) and the fleet trace merge, so scrape-path and merge-path
// regressions land in one reviewable file.
package cpsguard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cpsguard/internal/telemetry"
)

// benchObsRegistry builds a registry shaped like a real sweep's: a few dozen
// counters and a handful of populated histograms/timings.
func benchObsRegistry() *telemetry.Registry {
	r := telemetry.NewRegistry()
	for i := 0; i < 40; i++ {
		r.Counter(fmt.Sprintf("bench.counter_%02d", i)).Add(int64(i * 17))
	}
	for i := 0; i < 4; i++ {
		h := r.Histogram(fmt.Sprintf("bench.hist_%d", i), telemetry.WorkEdges)
		tm := r.Timing(fmt.Sprintf("bench.timing_%d_ns", i))
		for v := int64(1); v < 1_000_000; v *= 3 {
			h.Observe(v)
			tm.Observe(v)
		}
	}
	return r
}

// promExpositionOp returns one full exposition render — snapshot plus
// deterministic text encoding — of a sweep-sized registry.
func promExpositionOp(testing.TB) func() error {
	r := benchObsRegistry()
	return func() error {
		if len(r.PrometheusText()) == 0 {
			return errors.New("empty exposition")
		}
		return nil
	}
}

// benchFleetTraces builds an n-process fleet of linked Chrome traces, each
// with spansPer spans, for the merge benchmark.
func benchFleetTraces(tb testing.TB, n, spansPer int) []*telemetry.ChromeTrace {
	tb.Helper()
	tick := func(r *telemetry.Registry) {
		c := 0
		r.SetClock(func() time.Time {
			c++
			return time.Unix(0, int64(c)*int64(time.Millisecond))
		})
	}
	parent := telemetry.NewRegistry()
	tick(parent)
	parent.EnableTracing(true)
	parent.SetSpanCapacity(spansPer + 8)
	root := parent.StartSpan("shard.supervise", "bench")
	traces := make([]*telemetry.ChromeTrace, 0, n)
	for i := 1; i < n; i++ {
		launch := parent.StartSpan("shard.child", fmt.Sprintf("%d", i))
		tc, ok := parent.ChildTraceContext(launch)
		if !ok {
			tb.Fatal("no child trace context")
		}
		child := telemetry.NewRegistry()
		tick(child)
		child.SetTraceContext(tc)
		child.EnableTracing(true)
		child.SetSpanCapacity(spansPer + 8)
		for k := 0; k < spansPer; k++ {
			child.StartSpan("experiments.trial", fmt.Sprintf("t%d", k)).End()
		}
		launch.End()
		snap := child.Snapshot(telemetry.SnapshotOptions{Spans: true})
		snap.PID = 1000 + i
		traces = append(traces, snap.ChromeTrace())
	}
	root.End()
	snap := parent.Snapshot(telemetry.SnapshotOptions{Spans: true})
	snap.PID = 1000
	return append([]*telemetry.ChromeTrace{snap.ChromeTrace()}, traces...)
}

// traceMergeOp returns one stitch of an 8-process fleet (250 spans per
// child) into one timeline, including link validation.
func traceMergeOp(tb testing.TB) func() error {
	traces := benchFleetTraces(tb, 8, 250)
	return func() error {
		_, stats, err := telemetry.MergeChromeTraces(traces)
		if err == nil && stats.UnresolvedParents != 0 {
			err = fmt.Errorf("%d unresolved parents", stats.UnresolvedParents)
		}
		return err
	}
}
