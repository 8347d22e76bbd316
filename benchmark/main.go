// Command benchmark is the repository's end-to-end and per-layer benchmark.
// It runs one workload in-process through the program's public APIs for a
// fixed time, checks every op's outputs, and prints every metric by name
// with its unit; the last line of standard output is the JSON result.
//
//	bash benchmark/run.sh --workload figs-graph --seed 1 --seconds 50 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics, adding one traced op whose spans give each
// layer's self time. --spec prints BENCHMARK.json and --predictions the
// layer-to-metric predictions each workload was chosen to test.
//
// Run it from the repository root: it reads the grid and golden fixtures
// under testdata/.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cpsguard/internal/telemetry"
)

// A run builds its inputs again and again, for setupWindow before the first
// op and again after every op, and reports the median build as setup_s. One
// millisecond-scale build lands wholly inside whatever fast or slow spell
// the host is in; windows spread across the run sample several.
const setupWindow = 400 * time.Millisecond

// spanCapacity holds every span of the longest traced op.
const spanCapacity = 1 << 21

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", runSeconds, "how long to measure")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from an extra traced op")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	preds := fs.Bool("predictions", false, "print the per-layer predictions and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *spec:
		b, err := specJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		os.Stdout.Write(b)
		return 0
	case *preds:
		b, _ := json.MarshalIndent(predictions, "", "  ")
		fmt.Println(string(b))
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *seed == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: want --seed ≥ 1, --seconds > 0 and --trace 0 or 1")
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opSample is what one untraced op measured.
type opSample struct {
	wall      time.Duration
	allocMB   float64
	hostMS    [2]float64 // the reference kernel just before and just after
	counters  map[string]int64
	queueWait time.Duration
	screenRun time.Duration
}

// measure runs workload w at seed for the given time and returns its result.
// Errors are reserved for a benchmark that cannot produce a trustworthy
// number: bad inputs, a golden mismatch, or a count that failed to repeat.
func measure(w *workload, seed uint64, seconds time.Duration, trace bool) (*result, error) {
	if err := goldenFig5(); err != nil {
		return nil, err
	}

	var setups []float64
	setUp := func() (*instance, error) {
		var inst *instance
		for start := time.Now(); inst == nil || time.Since(start) < setupWindow; {
			t0 := time.Now()
			in, err := w.setup(seed)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			inst = in
		}
		return inst, nil
	}
	runtime.GC()
	inst, err := setUp()
	if err != nil {
		return nil, err
	}

	var (
		samples     []opSample
		trialMS     []float64
		hostMS      []float64
		attempted   int64
		failed      int64
		firstOut    []byte
		firstCounts map[string]int64
	)
	// Start another op only while it should finish inside the run, so a run
	// lasts about --seconds however long one op is.
	runStart := time.Now()
	for len(samples) == 0 || time.Since(runStart)+time.Duration(median(pick(samples, opSeconds))*1e9) <= seconds {
		s, rec, out, err := runOp(inst)
		// An op's units are its trials (figures) or screens (national).
		units := max(s.counters["experiments.trials"], int64(len(rec.trialMS)), 1)
		attempted += units
		switch {
		case err != nil:
			failed += units
			fmt.Fprintf(os.Stderr, "op %d failed: %v\n", len(samples)+1, err)
		case firstOut == nil:
			firstOut, firstCounts = out, s.counters
		case string(out) != string(firstOut):
			failed += units
			fmt.Fprintf(os.Stderr, "op %d: outputs differ from op 1 at the same seed\n", len(samples)+1)
		}
		if err == nil && !reflect.DeepEqual(s.counters, firstCounts) {
			return nil, fmt.Errorf("op %d: counts differ from op 1 at the same seed: %s",
				len(samples)+1, countDiff(firstCounts, s.counters))
		}
		trialMS = append(trialMS, rec.trialMS...)
		hostMS = append(hostMS, s.hostMS[:]...)
		samples = append(samples, s)
		fmt.Fprintf(os.Stderr, "%s op %d: %.3f s  alloc %.1f MB  host_ref %.2f ms\n",
			w.name, len(samples), s.wall.Seconds(), s.allocMB, median(s.hostMS[:]))
		if inst, err = setUp(); err != nil {
			return nil, err
		}
	}
	if firstCounts == nil {
		return nil, errors.New("every op failed")
	}

	m := map[string]float64{}
	if !trace {
		m["op_s"] = median(pick(samples, opSeconds))
		m["trial_p50_ms"] = percentile(trialMS, 0.5)
		m["trial_p90_ms"] = percentile(trialMS, 0.9)
		m["setup_s"] = median(setups)
		m["alloc_mb"] = median(pick(samples, func(s opSample) float64 { return s.allocMB }))
		m["peak_rss_mb"] = peakRSSMB()
		m["ok_frac"] = frac(attempted-failed, attempted)
	} else {
		if err := layerMetrics(m, inst, samples, firstCounts); err != nil {
			return nil, err
		}
		m["host_ref_ms"] = median(hostMS)
	}

	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]value{},
	}
	table := endToEnd
	if trace {
		table = perLayer
	}
	bw := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(bw, "%s seed %d: %d ops, %d units attempted, %d failed, %d trial latencies\n",
		w.name, seed, len(samples), attempted, failed, len(trialMS))
	fmt.Fprintf(bw, "  host_ref median %.3f ms over %d samples (diagnostic: a slow host reads high here too)\n",
		median(hostMS), len(hostMS))
	for _, mt := range table {
		v, ok := m[mt.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", mt.Name)
		}
		res.Metrics[mt.Name] = value{v, mt.Unit}
		fmt.Fprintf(bw, "  %-28s %16s %s\n", mt.Name, strconv.FormatFloat(v, 'g', 8, 64), mt.Unit)
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return res, nil
}

// runOp runs one untraced op between two timings of the reference kernel,
// with the registry zeroed so its counters are the op's alone.
func runOp(inst *instance) (opSample, *opRecorder, []byte, error) {
	reg := telemetry.Default()
	before := ms(hostRef())
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	reg.Reset()
	rec := &opRecorder{}
	start := time.Now()
	out, err := inst.op(context.Background(), rec)
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	snap := reg.Snapshot(telemetry.SnapshotOptions{Timings: true})
	after := ms(hostRef())
	return opSample{
		wall:      wall,
		allocMB:   float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		hostMS:    [2]float64{before, after},
		counters:  snap.Counters,
		queueWait: time.Duration(snap.Timings["parallel.queue_wait_ns"].Sum),
		screenRun: rec.screenRun,
	}, rec, out, err
}

// layerMetrics fills m with the per-layer metrics: counts from the untraced
// ops, then one traced op for the self-time split and tracing overhead.
func layerMetrics(m map[string]float64, inst *instance, samples []opSample, c map[string]int64) error {
	for _, name := range []string{
		"adversary.solves", "adversary.nodes", "adversary.unproven_exits",
		"lp.solves", "lp.pivots", "lp.revised.factorizations", "lp.revised.eta_updates",
		"lp.warm_attempts", "solvecache.hits", "solvecache.misses",
		"screen.evaluated", "screen.pruned", "defense.pa_samples", "knapsack.nodes",
		"experiments.trials", "parallel.tasks",
	} {
		m[name] = float64(c[name])
	}
	m["adversary.nodes_per_solve"] = frac(c["adversary.nodes"], c["adversary.solves"])
	m["adversary.proven_frac"] = 1 - frac(c["adversary.unproven_exits"], c["adversary.solves"])
	m["lp.pivots_per_solve"] = frac(c["lp.pivots"], c["lp.solves"])
	m["lp.warm_fallback_frac"] = frac(c["lp.warm_fallbacks"], c["lp.warm_attempts"])
	m["solvecache.hit_frac"] = frac(c["solvecache.hits"], c["solvecache.hits"]+c["solvecache.misses"])
	m["screen.prune_frac"] = frac(c["screen.pruned"], c["screen.pruned"]+c["screen.evaluated"])
	m["screen.run_s"] = median(pick(samples, func(s opSample) float64 { return s.screenRun.Seconds() }))
	m["parallel.queue_wait_s"] = median(pick(samples, func(s opSample) float64 { return s.queueWait.Seconds() }))

	cold, cached, err := inst.matrix()
	if err != nil {
		return err
	}
	m["impact.matrix_cold_ms"] = ms(cold)
	m["impact.matrix_cached_ms"] = ms(cached)

	layers, total, err := tracedOp(inst, c)
	if err != nil {
		return err
	}
	var sum int64
	for _, l := range selfLayers {
		m[l+".self_s"] = float64(layers[l]) / 1e9
		sum += layers[l]
		delete(layers, l)
	}
	if len(layers) > 0 || sum != total {
		return fmt.Errorf("self times %v (sum %d ns) do not partition the traced op (%d ns)", layers, sum, total)
	}
	m["trace.op_s"] = float64(total) / 1e9
	m["trace.overhead_frac"] = m["trace.op_s"]/median(pick(samples, opSeconds)) - 1
	return nil
}

// tracedOp runs one op with spans on, under a benchmark root span, and
// returns each layer's self time and the root's duration. Its counts must
// match the untraced ops': tracing observes, it does not change the work.
func tracedOp(inst *instance, want map[string]int64) (map[string]int64, int64, error) {
	reg := telemetry.Default()
	runtime.GC()
	reg.Reset()
	reg.SetSpanCapacity(spanCapacity)
	reg.EnableTracing(true)
	root, ctx := reg.StartSpanCtx(context.Background(), "bench.op", "")
	_, err := inst.op(ctx, &opRecorder{})
	root.End()
	reg.EnableTracing(false)
	if err != nil {
		return nil, 0, fmt.Errorf("traced op: %w", err)
	}
	snap := reg.Snapshot(telemetry.SnapshotOptions{Spans: true})
	if snap.SpansDropped > 0 {
		return nil, 0, fmt.Errorf("traced op overflowed the span ring (%d dropped)", snap.SpansDropped)
	}
	if !reflect.DeepEqual(snap.Counters, want) {
		return nil, 0, fmt.Errorf("traced op: counts differ from the untraced ops: %s", countDiff(want, snap.Counters))
	}
	return selfTime(snap.Spans, layerOf)
}

// countDiff names the counters whose values differ between a and b.
func countDiff(a, b map[string]int64) string {
	var diffs []string
	for k, v := range a {
		if b[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s %d→%d", k, v, b[k]))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s absent→%d", k, v))
		}
	}
	return strings.Join(diffs, ", ")
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

func pick(samples []opSample, f func(opSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func opSeconds(s opSample) float64 { return s.wall.Seconds() }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
