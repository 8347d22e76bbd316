package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cpsguard/internal/manifest"
	"cpsguard/internal/obs"
	"cpsguard/internal/screen"
	"cpsguard/internal/telemetry"
)

func syntheticRun(t *testing.T) *runData {
	t.Helper()
	m := manifest.New("cpsexp", 7)
	m.RunID = "cpsexp-20260101T000000-s7"
	m.Started = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	m.Finished = m.Started.Add(3 * time.Second)
	m.Flags = map[string]string{"fig": "5", "seed": "7"}
	m.Outputs = []manifest.FileDigest{{Path: "fig5.csv", SHA256: strings.Repeat("ab", 32), Bytes: 78}}
	return &runData{
		Dir:      "/tmp/x",
		Manifest: m,
		Snapshot: &telemetry.Snapshot{
			Counters: map[string]int64{
				"checkpoint.trials_executed": 2,
				"checkpoint.retries":         1,
				"lp.warm_fallbacks":          1,
				"lp.solves":                  10,
			},
			Spans: []telemetry.SpanRecord{
				{ID: 1, Stage: "experiments.point", Problem: "fig5", DurationNS: 3e9},
				{ID: 2, ParentID: 1, Stage: "experiments.trial", Problem: "s7|fig5|t0", DurationNS: 2e9, Retries: 1},
				{ID: 3, ParentID: 1, Stage: "experiments.trial", Problem: "s7|fig5|t1", DurationNS: 1e9,
					Degradations: []string{"watchdog: deadline exceeded, requeued"}},
				{ID: 4, ParentID: 2, Stage: "lp.solve", Work: 120, DurationNS: 5e8},
			},
		},
		Events: []obs.DecodedEvent{
			{Level: "info", Msg: "wrote csv"},
			{Level: "warn", Stage: "fig5", Trial: "s7|fig5|t1", Msg: "retrying after transient failure"},
		},
	}
}

func TestRenderReportSections(t *testing.T) {
	out := renderReport(syntheticRun(t))
	for _, want := range []string{
		"# Run report: cpsexp-20260101T000000-s7",
		"## Flags",
		"| `-fig` | `5` |",
		"## Artifacts",
		"`fig5.csv`",
		"## Stage breakdown",
		"`experiments.trial` | 2 | 3s",
		"## Trials",
		"2 executed, 0 replayed from journal, 1 retries",
		"s7\\|fig5\\|t0",
		"⚑", // watchdog flag on t1
		"## Fallbacks and degradations",
		"`lp.warm_fallbacks` | 1",
		"`watchdog`×1",
		"## Events",
		"retrying after transient failure",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n---\n%s", want, out)
		}
	}
}

// TestRenderReportScreenSection: a run with a screen.json ranking gets the
// vulnerability table — worst contingencies ranked, inherited certificates
// marked, certified-zero targets counted — and an unscreened run gets none.
func TestRenderReportScreenSection(t *testing.T) {
	d := syntheticRun(t)
	if out := renderReport(d); strings.Contains(out, "Vulnerability screen") {
		t.Fatalf("unscreened run must not render a screen section:\n%s", out)
	}
	d.Screen = &screen.Ranking{
		K: 2, BaselineWelfare: 1234.5,
		Worst: screen.Contingency{Targets: []string{"tx:a", "tx:b"}, Delta: -200},
		Top: []screen.Contingency{
			{Targets: []string{"tx:a", "tx:b"}, Delta: -200},
			{Targets: []string{"tx:a", "pipe:c"}, Delta: -150, Inherited: true},
		},
		Targets: []screen.TargetScore{
			{ID: "tx:a", Delta: -180},
			{ID: "pipe:c", Delta: 0, CertifiedZero: true},
		},
		Evaluated: 40, Pruned: 60,
	}
	out := renderReport(d)
	for _, want := range []string{
		"## Vulnerability screen (N-2)",
		"Baseline welfare 1234.50; 40 contingency sets",
		"40 contingency sets evaluated, 60 pruned as dominated",
		"| 1 | `tx:a + tx:b` | -200.00 |",
		"| 2 | `tx:a + pipe:c` | -150.00 | ✓ |",
		"1 of 2 single targets certified harmless",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("screen section missing %q\n---\n%s", want, out)
		}
	}
}

// TestLoadRunReadsScreenArtifact: loadRun picks up screen.json when present
// and degrades with a Missing note (not an error) when it is corrupt.
func TestLoadRunReadsScreenArtifact(t *testing.T) {
	dir := t.TempDir()
	m := manifest.New("cpsexp", 7)
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
	// Written with the "monotone" key rankings no longer carry: an older
	// artifact still loads.
	good := `{"k":1,"baseline_welfare":10,"monotone":true,"worst":{"targets":["tx:a"],"welfare_delta":-5},"top":[],"targets":[],"evaluated":3,"pruned":1}`
	if err := os.WriteFile(filepath.Join(dir, "screen.json"), []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := loadRun(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Screen == nil || d.Screen.K != 1 || d.Screen.Pruned != 1 {
		t.Fatalf("screen.json not loaded: %+v", d.Screen)
	}

	if err := os.WriteFile(filepath.Join(dir, "screen.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err = loadRun(dir, "")
	if err != nil {
		t.Fatalf("corrupt screen.json must degrade, not abort: %v", err)
	}
	if d.Screen != nil {
		t.Fatal("corrupt screen.json parsed into a ranking")
	}
	found := false
	for _, miss := range d.Missing {
		if strings.Contains(miss, "screen.json") {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupt screen.json not surfaced in Missing: %v", d.Missing)
	}
}

func TestRenderReportTrialsSortedByDuration(t *testing.T) {
	out := renderReport(syntheticRun(t))
	slow := strings.Index(out, "s7\\|fig5\\|t0")
	fast := strings.Index(out, "s7\\|fig5\\|t1")
	if slow < 0 || fast < 0 || slow > fast {
		t.Fatalf("trial rows not duration-sorted (t0 at %d, t1 at %d)", slow, fast)
	}
}

func TestRenderDiff(t *testing.T) {
	a, b := syntheticRun(t), syntheticRun(t)
	b.Manifest.Seed = 8
	b.Manifest.Flags["seed"] = "8"
	b.Snapshot.Counters["lp.solves"] = 14
	out := renderDiff(a, b)
	for _, want := range []string{
		"# Run comparison",
		"## Manifest differences",
		"| seed | 7 | 8 |",
		"## Counter deltas",
		"| `lp.solves` | 10 | 14 | +4 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff missing %q\n---\n%s", want, out)
		}
	}
}

func TestRenderDiffIdenticalRuns(t *testing.T) {
	out := renderDiff(syntheticRun(t), syntheticRun(t))
	if !strings.Contains(out, "Manifests are equivalent") {
		t.Errorf("identical manifests not reported as equivalent:\n%s", out)
	}
	if !strings.Contains(out, "All counters identical") {
		t.Errorf("identical counters not reported as identical:\n%s", out)
	}
}

func TestLoadRunDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	m := manifest.New("cpsgen", 1)
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
	d, err := loadRun(dir, "")
	if err != nil {
		t.Fatalf("loadRun with manifest only: %v", err)
	}
	if len(d.Missing) == 0 {
		t.Error("expected missing-artifact notes for metrics/trace/events")
	}
	out := renderReport(d)
	if !strings.Contains(out, "> missing:") {
		t.Errorf("report does not surface missing artifacts:\n%s", out)
	}
}

func TestLoadRunRequiresManifest(t *testing.T) {
	if _, err := loadRun(t.TempDir(), ""); err == nil {
		t.Fatal("loadRun without manifest.json should fail")
	}
}

func TestLoadEventsSkipsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	data := `{"level":"info","msg":"ok"}` + "\n" + `{"level":"warn","ms` // torn mid-write
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	events, torn, err := loadEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Msg != "ok" {
		t.Fatalf("want 1 parsed event, got %+v", events)
	}
	if torn != 1 {
		t.Fatalf("torn = %d, want 1", torn)
	}
}

func TestLoadRunReportsTornEventsAndKeepsRendering(t *testing.T) {
	dir := t.TempDir()
	m := manifest.New("cpsexp", 7)
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
	// A stream truncated mid-record: two good events, then a torn line.
	data := `{"level":"info","msg":"trial started"}` + "\n" +
		`{"level":"info","msg":"wrote csv"}` + "\n" +
		`{"level":"warn","msg":"half a reco`
	if err := os.WriteFile(filepath.Join(dir, "events.jsonl"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := loadRun(dir, "")
	if err != nil {
		t.Fatalf("loadRun on a torn stream must not abort: %v", err)
	}
	if len(d.Events) != 2 {
		t.Fatalf("recovered events = %d, want 2", len(d.Events))
	}
	var note string
	for _, miss := range d.Missing {
		if strings.Contains(miss, "torn") {
			note = miss
		}
	}
	if !strings.Contains(note, "1 torn line(s)") || !strings.Contains(note, "2 event(s) recovered") {
		t.Fatalf("torn-line note missing or wrong: %q (all: %v)", note, d.Missing)
	}
	out := renderReport(d)
	if !strings.Contains(out, "torn") || !strings.Contains(out, "2 events") {
		t.Errorf("report must surface the torn note and still render events:\n%s", out)
	}
}

func TestLoadEventsKeepsPartialOnScannerError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	// One good record, then a line exceeding the scanner's 4 MiB cap: the
	// scanner fails, but the parsed prefix must survive.
	data := `{"level":"info","msg":"ok"}` + "\n" + strings.Repeat("x", 5*1024*1024)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	events, _, err := loadEvents(path)
	if err == nil {
		t.Fatal("want a scanner error for the oversized line")
	}
	if len(events) != 1 || events[0].Msg != "ok" {
		t.Fatalf("partial events lost on scanner error: %+v", events)
	}
}

// TestLoadRunNamesTheBrokenDirectory: the satellite contract for -diff —
// whichever side lacks (or has a corrupt) manifest.json, the error must name
// that directory so the operator knows which run is at fault.
func TestLoadRunNamesTheBrokenDirectory(t *testing.T) {
	missing := t.TempDir()
	_, err := loadRun(missing, "")
	if err == nil || !strings.Contains(err.Error(), missing) ||
		!strings.Contains(err.Error(), "manifest.json") {
		t.Fatalf("missing-manifest err = %v, want one naming %s", err, missing)
	}

	corrupt := t.TempDir()
	if err := os.WriteFile(filepath.Join(corrupt, "manifest.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = loadRun(corrupt, "")
	if err == nil || !strings.Contains(err.Error(), corrupt) ||
		!strings.Contains(err.Error(), "unreadable manifest") {
		t.Fatalf("corrupt-manifest err = %v, want unreadable-manifest error naming %s", err, corrupt)
	}

	_, err = loadRun(filepath.Join(missing, "never-created"), "")
	if err == nil || !strings.Contains(err.Error(), "run directory") {
		t.Fatalf("nonexistent-dir err = %v, want run-directory error", err)
	}
}
