// Committed bench reports. Every row of benchRows belongs to a suite, and
// each suite has a committed BENCH_<suite>.json fixture at the repository
// root in the cpsguard-bench/v1 envelope. A plain `go test` (make
// bench-check) runs each row's warm-up op and one counted op and requires
// the counted op's telemetry counters to equal the committed file exactly;
// with -update (make bench) it also times each row with testing.Benchmark
// and rewrites the file. BenchmarkReports runs the same rows as benchmarks.
package cpsguard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"cpsguard/internal/lp"
	"cpsguard/internal/telemetry"
)

// benchSchema versions the BENCH_*.json layout. Consumers should reject
// files whose schema they do not recognize rather than guess; bump the
// suffix on any incompatible change.
const benchSchema = "cpsguard-bench/v1"

// benchReport is the file-level envelope of a BENCH_<suite>.json.
type benchReport struct {
	Schema     string                `json:"schema"`
	GoVersion  string                `json:"go_version"`
	Platform   string                `json:"platform"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

// benchEntry is one row's timing, taken under -update, and the telemetry
// counters of one op (see countOneOp), which do not move with b.N.
type benchEntry struct {
	Iterations  int              `json:"iterations"`
	NsPerOp     int64            `json:"ns_per_op"`
	AllocsPerOp int64            `json:"allocs_per_op"`
	BytesPerOp  int64            `json:"bytes_per_op"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// benchRow is one benchmarked op of a suite: newOp builds the op's fixture
// and returns the op. benchRows lists each suite's rows together.
type benchRow struct {
	suite, name string
	newOp       func(testing.TB) func() error
}

var benchRows = []benchRow{
	{"telemetry", "LPSolve", lpSolveOp},
	{"telemetry", "MILPSolve", milpSolveOp},
	{"telemetry", "AdversaryResilient", adversaryResilientOp},
	{"telemetry", "ExperimentsTrial", experimentsTrialOp},
	{"warmstart", "ImpactMatrix", impactMatrixOp},
	{"warmstart", "AdversaryCold", adversaryColdOp},
	{"warmstart", "AdversaryCached", adversaryCachedOp},
	{"revised", "RevisedSimplex", revisedSimplexOp},
	{"revised", "RevisedNationalGrid", nationalDispatchOp(256, lp.MethodAuto)},
	{"revised", "RevisedNationalOracle", nationalDispatchOp(64, lp.MethodAuto)},
	{"revised", "DenseNationalOracle", nationalDispatchOp(64, lp.MethodDense)},
	{"screen", "ScreenNational", screenNationalOp},
	{"shard", "ShardMerge", shardMergeOp},
	{"servd", "ServdCacheHit", servdCacheHitOp},
	{"obs", "PromExposition", promExpositionOp},
	{"obs", "TraceMerge", traceMergeOp},
}

// benchChecks holds each suite's gates over its rows' entries. Counter
// gates run in both modes; timed is true under -update, the only mode
// whose entries carry timings.
var benchChecks = map[string]func(t *testing.T, e map[string]benchEntry, timed bool){
	"warmstart": checkWarmstart,
	"revised":   checkRevised,
	"screen":    checkScreen,
	"shard":     checkShard,
	"servd":     checkServd,
}

// runOp times op as a benchmark.
func runOp(b *testing.B, op func() error) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReports runs every bench row as a benchmark, named suite/row.
func BenchmarkReports(b *testing.B) {
	for _, row := range benchRows {
		b.Run(row.suite+"/"+row.name, func(b *testing.B) { runOp(b, row.newOp(b)) })
	}
}

// countOneOp runs a warm-up op on a fresh fixture, so that a cached op
// reads its steady state, and returns the nonzero telemetry counters of the
// one op after it. parallel.worker_starts is left out: a pool starts one
// worker per task up to its worker count, which defaults to GOMAXPROCS.
func countOneOp(t *testing.T, newOp func(testing.TB) func() error) map[string]int64 {
	t.Helper()
	op := newOp(t)
	if err := op(); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.Default()
	reg.Reset()
	defer reg.Reset()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{}
	for name, v := range reg.Snapshot(telemetry.SnapshotOptions{}).Counters {
		if v != 0 && name != "parallel.worker_starts" {
			counters[name] = v
		}
	}
	return counters
}

// TestBenchReports has one subtest per suite. It counts one op of each of
// the suite's rows, runs the suite's gates, and then either requires the
// counters to equal the committed BENCH_<suite>.json exactly or, under
// -update, times every row and rewrites the file.
func TestBenchReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two ops of every bench row, the dense national oracle among them")
	}
	var suites []string
	for _, row := range benchRows {
		if len(suites) == 0 || suites[len(suites)-1] != row.suite {
			suites = append(suites, row.suite)
		}
	}
	for _, suite := range suites {
		t.Run(suite, func(t *testing.T) {
			got := map[string]benchEntry{}
			for _, row := range benchRows {
				if row.suite != suite {
					continue
				}
				e := benchEntry{Counters: countOneOp(t, row.newOp)}
				if *updateGolden {
					r := testing.Benchmark(func(b *testing.B) { runOp(b, row.newOp(b)) })
					e.Iterations, e.NsPerOp = r.N, r.NsPerOp()
					e.AllocsPerOp, e.BytesPerOp = r.AllocsPerOp(), r.AllocedBytesPerOp()
					t.Logf("%s: %d iter, %d ns/op", row.name, r.N, r.NsPerOp())
				}
				got[row.name] = e
			}
			if check := benchChecks[suite]; check != nil {
				check(t, got, *updateGolden)
			}
			path := "BENCH_" + suite + ".json"
			if *updateGolden {
				writeBenchReport(t, path, got)
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing report (run make bench to create): %v", err)
			}
			want, err := decodeBenchReport(data)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			compareBenchCounters(t, path, want.Benchmarks, got)
		})
	}
}

// compareBenchCounters reports every row and counter on which got differs
// from the committed want.
func compareBenchCounters(t *testing.T, path string, want, got map[string]benchEntry) {
	t.Helper()
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: row %s is not in benchRows (run make bench)", path, name)
		}
	}
	for name, e := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no %s row (run make bench)", path, name)
			continue
		}
		for c := range w.Counters {
			if _, ok := e.Counters[c]; !ok {
				t.Errorf("%s: %s %s = 0 per op, committed %d", path, name, c, w.Counters[c])
			}
		}
		for c, v := range e.Counters {
			if w.Counters[c] != v {
				t.Errorf("%s: %s %s = %d per op, committed %d", path, name, c, v, w.Counters[c])
			}
		}
	}
}

// decodeBenchReport decodes a report strictly: unknown fields and any
// schema other than benchSchema are errors.
func decodeBenchReport(data []byte) (benchReport, error) {
	var r benchReport
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, err
	}
	if r.Schema != benchSchema {
		return r, fmt.Errorf("schema %q, want %q", r.Schema, benchSchema)
	}
	return r, nil
}

func writeBenchReport(t *testing.T, path string, entries map[string]benchEntry) {
	t.Helper()
	data, err := json.MarshalIndent(benchReport{
		Schema:     benchSchema,
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Benchmarks: entries,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", path, len(data)+1)
}

// TestBenchReportSchema pins the cpsguard-bench/v1 envelope: its exact
// top-level keys, which downstream trackers key on, and a round trip
// through the strict decoder the committed reports are read with. Renaming
// a key is a breaking change that must bump benchSchema.
func TestBenchReportSchema(t *testing.T) {
	in := benchReport{
		Schema: benchSchema, GoVersion: "go0.0", Platform: "test/none",
		Benchmarks: map[string]benchEntry{
			"LPSolve": {Iterations: 1, NsPerOp: 2, Counters: map[string]int64{"lp.pivots": 3}},
		},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, " "); got != "benchmarks go_version platform schema" {
		t.Errorf("envelope keys %q (a schema change requires a version bump)", got)
	}
	back, err := decodeBenchReport(data)
	if err != nil || !reflect.DeepEqual(back, in) {
		t.Errorf("round trip: %+v, %v", back, err)
	}
	for _, bad := range []string{
		`{"schema": "cpsguard-bench/v1", "extra": 1}`,
		`{"schema": "cpsguard-bench/v0"}`,
	} {
		if _, err := decodeBenchReport([]byte(bad)); err == nil {
			t.Errorf("decoded %s without error", bad)
		}
	}
}
