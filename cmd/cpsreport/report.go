// Report rendering: pure functions from loaded run data to markdown. Kept
// free of I/O so tests can feed synthetic runs and assert on the output.
package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cpsguard/internal/checkpoint"
	"cpsguard/internal/manifest"
	"cpsguard/internal/obs"
	"cpsguard/internal/screen"
	"cpsguard/internal/telemetry"
)

// maxTrialRows bounds the per-trial table; the slowest trials are the
// interesting ones, so rows are duration-sorted and the rest summarized.
const maxTrialRows = 50

// maxEventRows bounds the warn/error event listing.
const maxEventRows = 20

// maxScreenRows bounds the vulnerability-ranking tables.
const maxScreenRows = 10

// runData is everything cpsreport could load for one run directory. Only
// Manifest is mandatory; every other artifact degrades to a "missing" note
// so a crashed or minimal run still yields a report.
type runData struct {
	Dir      string
	Manifest *manifest.Manifest
	Snapshot *telemetry.Snapshot
	Trace    *telemetry.ChromeTrace
	Events   []obs.DecodedEvent
	Journal  *checkpoint.Replay
	// Screen is the N-k vulnerability ranking a -screen-k run leaves behind
	// as screen.json; nil for unscreened runs.
	Screen *screen.Ranking
	// Missing lists artifacts that could not be loaded, with reasons.
	Missing []string
}

// stageAgg is the per-stage rollup over the retained span window.
type stageAgg struct {
	stage    string
	count    int
	wallNS   int64
	work     int64
	retries  int
	degraded int
}

func aggregateStages(spans []telemetry.SpanRecord) []stageAgg {
	byStage := map[string]*stageAgg{}
	for _, sp := range spans {
		a := byStage[sp.Stage]
		if a == nil {
			a = &stageAgg{stage: sp.Stage}
			byStage[sp.Stage] = a
		}
		a.count++
		a.wallNS += sp.DurationNS
		a.work += sp.Work
		a.retries += sp.Retries
		a.degraded += len(sp.Degradations)
	}
	out := make([]stageAgg, 0, len(byStage))
	for _, a := range byStage {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].wallNS != out[j].wallNS {
			return out[i].wallNS > out[j].wallNS
		}
		return out[i].stage < out[j].stage
	})
	return out
}

// trialRow joins one experiments.trial span with its journal record.
type trialRow struct {
	id       string
	wallNS   int64
	retries  int
	watchdog bool
	status   string // "ok", "failed", "replayed", or "—" (no journal)
	errMsg   string
}

func trialRows(d *runData) []trialRow {
	var rows []trialRow
	if d.Snapshot == nil {
		return nil
	}
	replayed := map[string]bool{}
	for _, ev := range d.Events {
		if ev.Msg == "trial replayed from journal" && ev.Trial != "" {
			replayed[ev.Trial] = true
		}
	}
	for _, sp := range d.Snapshot.Spans {
		if sp.Stage != "experiments.trial" {
			continue
		}
		r := trialRow{id: sp.Problem, wallNS: sp.DurationNS, retries: sp.Retries, status: "—"}
		for _, dg := range sp.Degradations {
			if strings.HasPrefix(dg, "watchdog") {
				r.watchdog = true
			}
		}
		if rec, ok := d.Journal.Lookup(sp.Problem); ok {
			if rec.OK {
				r.status = "ok"
			} else {
				r.status = "failed"
				r.errMsg = rec.Error
			}
		}
		if replayed[r.id] {
			r.status = "replayed"
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].wallNS != rows[j].wallNS {
			return rows[i].wallNS > rows[j].wallNS
		}
		return rows[i].id < rows[j].id
	})
	return rows
}

// renderReport turns one run's data into a markdown report.
func renderReport(d *runData) string {
	var b strings.Builder
	m := d.Manifest
	fmt.Fprintf(&b, "# Run report: %s\n\n", m.RunID)

	fmt.Fprintf(&b, "| | |\n|---|---|\n")
	fmt.Fprintf(&b, "| tool | `%s` |\n", m.Tool)
	fmt.Fprintf(&b, "| started | %s |\n", m.Started.Format(time.RFC3339))
	if !m.Finished.IsZero() {
		fmt.Fprintf(&b, "| finished | %s |\n", m.Finished.Format(time.RFC3339))
		fmt.Fprintf(&b, "| wall clock | %s |\n", fmtDur(m.Finished.Sub(m.Started).Nanoseconds()))
	}
	fmt.Fprintf(&b, "| seed | %d |\n", m.Seed)
	fmt.Fprintf(&b, "| go | %s (%s) |\n", m.GoVersion, m.Platform)
	if m.ConfigSHA256 != "" {
		fmt.Fprintf(&b, "| config | `%s` |\n", short(m.ConfigSHA256))
	}
	if m.TelemetrySHA256 != "" {
		fmt.Fprintf(&b, "| telemetry | `%s` |\n", short(m.TelemetrySHA256))
	}
	b.WriteString("\n")
	for _, n := range m.Notes {
		fmt.Fprintf(&b, "> note: %s\n", cell(n))
	}
	for _, miss := range d.Missing {
		fmt.Fprintf(&b, "> missing: %s\n", cell(miss))
	}
	if len(m.Notes) > 0 || len(d.Missing) > 0 {
		b.WriteString("\n")
	}

	renderFlags(&b, m.Flags)
	renderArtifacts(&b, m)
	renderScreen(&b, d)
	renderStages(&b, d)
	renderTrials(&b, d)
	renderFallbacks(&b, d)
	renderEvents(&b, d)
	renderTraceInfo(&b, d)
	return b.String()
}

func renderFlags(b *strings.Builder, flags map[string]string) {
	if len(flags) == 0 {
		return
	}
	b.WriteString("## Flags\n\n| flag | value |\n|---|---|\n")
	names := make([]string, 0, len(flags))
	for n := range flags {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b, "| `-%s` | `%s` |\n", n, cell(flags[n]))
	}
	b.WriteString("\n")
}

func renderArtifacts(b *strings.Builder, m *manifest.Manifest) {
	if len(m.Inputs) == 0 && len(m.Outputs) == 0 {
		return
	}
	b.WriteString("## Artifacts\n\n| kind | path | bytes | sha256 |\n|---|---|---:|---|\n")
	row := func(kind string, d manifest.FileDigest) {
		if d.Error != "" {
			fmt.Fprintf(b, "| %s | `%s` | | error: %s |\n", kind, cell(d.Path), cell(d.Error))
			return
		}
		fmt.Fprintf(b, "| %s | `%s` | %d | `%s` |\n", kind, cell(d.Path), d.Bytes, short(d.SHA256))
	}
	for _, d := range m.Inputs {
		row("input", d)
	}
	for _, d := range m.Outputs {
		row("output", d)
	}
	b.WriteString("\n")
}

// renderScreen renders the N-k vulnerability ranking: the worst contingency
// sets by welfare impact, the worst single targets, and how much of the
// contingency space the dominance rule certified away (see DESIGN.md §17).
func renderScreen(b *strings.Builder, d *runData) {
	r := d.Screen
	if r == nil {
		return
	}
	fmt.Fprintf(b, "## Vulnerability screen (N-%d)\n\n", r.K)
	fmt.Fprintf(b, "Baseline welfare %.2f; %d contingency sets evaluated, %d pruned as dominated.\n\n",
		r.BaselineWelfare, r.Evaluated, r.Pruned)
	if r.Truncated {
		b.WriteString("> ranking truncated: the contingency space exceeded the screen budget\n\n")
	}

	if len(r.Top) > 0 {
		certified := 0
		for _, ts := range r.Targets {
			if ts.CertifiedZero {
				certified++
			}
		}
		b.WriteString("| rank | contingency | welfare impact | inherited |\n|---:|---|---:|:---:|\n")
		for i, c := range r.Top {
			if i >= maxScreenRows {
				fmt.Fprintf(b, "\n(%d more contingency sets omitted)\n", len(r.Top)-maxScreenRows)
				break
			}
			inh := ""
			if c.Inherited {
				inh = "✓"
			}
			fmt.Fprintf(b, "| %d | `%s` | %.2f | %s |\n",
				i+1, cell(strings.Join(c.Targets, " + ")), c.Delta, inh)
		}
		fmt.Fprintf(b, "\n%d of %d single targets certified harmless (zero welfare impact at every depth).\n\n",
			certified, len(r.Targets))
	}
}

func renderStages(b *strings.Builder, d *runData) {
	if d.Snapshot == nil {
		return
	}
	aggs := aggregateStages(d.Snapshot.Spans)
	if len(aggs) == 0 {
		return
	}
	b.WriteString("## Stage breakdown\n\n")
	if d.Snapshot.SpansDropped > 0 {
		fmt.Fprintf(b, "> span ring overflowed: %d oldest spans dropped; totals below cover the retained window only\n\n",
			d.Snapshot.SpansDropped)
	}
	b.WriteString("| stage | spans | wall | work | retries | degradations |\n|---|---:|---:|---:|---:|---:|\n")
	for _, a := range aggs {
		fmt.Fprintf(b, "| `%s` | %d | %s | %d | %d | %d |\n",
			a.stage, a.count, fmtDur(a.wallNS), a.work, a.retries, a.degraded)
	}
	b.WriteString("\n")
}

func renderTrials(b *strings.Builder, d *runData) {
	rows := trialRows(d)
	execd, replayed := counter(d, "checkpoint.trials_executed"), counter(d, "checkpoint.trials_replayed")
	if len(rows) == 0 && execd == 0 && replayed == 0 {
		return
	}
	b.WriteString("## Trials\n\n")
	if execd > 0 || replayed > 0 {
		fmt.Fprintf(b, "%d executed, %d replayed from journal, %d retries, %d watchdog flags.\n\n",
			execd, replayed, counter(d, "checkpoint.retries"), counter(d, "checkpoint.watchdog_flags"))
	}
	if len(rows) == 0 {
		return
	}
	shown := rows
	if len(shown) > maxTrialRows {
		shown = shown[:maxTrialRows]
	}
	b.WriteString("| trial | wall | retries | watchdog | journal | error |\n|---|---:|---:|:---:|---|---|\n")
	for _, r := range shown {
		wd := ""
		if r.watchdog {
			wd = "⚑"
		}
		fmt.Fprintf(b, "| `%s` | %s | %d | %s | %s | %s |\n",
			cell(r.id), fmtDur(r.wallNS), r.retries, wd, r.status, cell(r.errMsg))
	}
	if len(rows) > maxTrialRows {
		fmt.Fprintf(b, "\n(%d more trials omitted; slowest %d shown)\n", len(rows)-maxTrialRows, maxTrialRows)
	}
	b.WriteString("\n")
}

func renderFallbacks(b *strings.Builder, d *runData) {
	if d.Snapshot == nil {
		return
	}
	// Any counter recording a resilience path: lp warm and dense
	// fallbacks, Bland switches, unproven (budget-capped) exits, watchdog
	// requeues.
	var names []string
	for n := range d.Snapshot.Counters {
		if strings.Contains(n, "fallback") || strings.Contains(n, "unproven") ||
			strings.Contains(n, "bland") || strings.Contains(n, "watchdog") {
			if d.Snapshot.Counters[n] != 0 {
				names = append(names, n)
			}
		}
	}
	degr := map[string]int{}
	for _, sp := range d.Snapshot.Spans {
		for _, dg := range sp.Degradations {
			kind, _, _ := strings.Cut(dg, ":")
			degr[kind]++
		}
	}
	if len(names) == 0 && len(degr) == 0 {
		return
	}
	b.WriteString("## Fallbacks and degradations\n\n")
	if len(names) > 0 {
		sort.Strings(names)
		b.WriteString("| counter | value |\n|---|---:|\n")
		for _, n := range names {
			fmt.Fprintf(b, "| `%s` | %d |\n", n, d.Snapshot.Counters[n])
		}
		b.WriteString("\n")
	}
	if len(degr) > 0 {
		kinds := make([]string, 0, len(degr))
		for k := range degr {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		b.WriteString("Degradations recorded on spans: ")
		for i, k := range kinds {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "`%s`×%d", k, degr[k])
		}
		b.WriteString("\n\n")
	}
}

func renderEvents(b *strings.Builder, d *runData) {
	if len(d.Events) == 0 {
		return
	}
	byLevel := map[string]int{}
	var notable []obs.DecodedEvent
	for _, ev := range d.Events {
		byLevel[ev.Level]++
		if ev.Level == "warn" || ev.Level == "error" {
			notable = append(notable, ev)
		}
	}
	b.WriteString("## Events\n\n")
	fmt.Fprintf(b, "%d events: %d debug, %d info, %d warn, %d error.\n\n",
		len(d.Events), byLevel["debug"], byLevel["info"], byLevel["warn"], byLevel["error"])
	if len(notable) == 0 {
		return
	}
	shown := notable
	if len(shown) > maxEventRows {
		shown = shown[:maxEventRows]
	}
	b.WriteString("| level | stage | trial | message |\n|---|---|---|---|\n")
	for _, ev := range shown {
		fmt.Fprintf(b, "| %s | %s | `%s` | %s |\n",
			ev.Level, cell(ev.Stage), cell(ev.Trial), cell(ev.Msg))
	}
	if len(notable) > maxEventRows {
		fmt.Fprintf(b, "\n(%d more warn/error events omitted)\n", len(notable)-maxEventRows)
	}
	b.WriteString("\n")
}

func renderTraceInfo(b *strings.Builder, d *runData) {
	if d.Trace == nil {
		return
	}
	spans, tracks := 0, 0
	for _, ev := range d.Trace.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
		case "M":
			tracks++
		}
	}
	b.WriteString("## Trace\n\n")
	fmt.Fprintf(b, "`trace.json` holds %d spans across %d tracks — open it in chrome://tracing or https://ui.perfetto.dev.\n",
		spans, tracks)
}

// renderDiff compares two runs: manifest-level differences plus counter
// deltas (the deterministic sections, so a diff on identical seeds and
// configs isolates behavioral drift).
func renderDiff(a, d *runData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Run comparison\n\n| | A | B |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| run | `%s` | `%s` |\n", a.Manifest.RunID, d.Manifest.RunID)
	fmt.Fprintf(&b, "| dir | `%s` | `%s` |\n\n", cell(a.Dir), cell(d.Dir))

	diffs := manifest.Diff(a.Manifest, d.Manifest)
	if len(diffs) == 0 {
		b.WriteString("Manifests are equivalent (same tool, seed, config, inputs, outputs).\n\n")
	} else {
		b.WriteString("## Manifest differences\n\n| field | A | B |\n|---|---|---|\n")
		for _, e := range diffs {
			fmt.Fprintf(&b, "| %s | %s | %s |\n", cell(e.Field), cell(e.A), cell(e.B))
		}
		b.WriteString("\n")
	}

	renderCounterDiff(&b, a, d)
	return b.String()
}

func renderCounterDiff(b *strings.Builder, a, d *runData) {
	if a.Snapshot == nil || d.Snapshot == nil {
		b.WriteString("(counter comparison skipped: metrics.json missing on one side)\n")
		return
	}
	names := map[string]bool{}
	for n := range a.Snapshot.Counters {
		names[n] = true
	}
	for n := range d.Snapshot.Counters {
		names[n] = true
	}
	var changed []string
	for n := range names {
		if a.Snapshot.Counters[n] != d.Snapshot.Counters[n] {
			changed = append(changed, n)
		}
	}
	if len(changed) == 0 {
		b.WriteString("All counters identical — the runs did the same logical work.\n")
		return
	}
	sort.Strings(changed)
	b.WriteString("## Counter deltas\n\n| counter | A | B | Δ |\n|---|---:|---:|---:|\n")
	for _, n := range changed {
		av, bv := a.Snapshot.Counters[n], d.Snapshot.Counters[n]
		fmt.Fprintf(b, "| `%s` | %d | %d | %+d |\n", n, av, bv, bv-av)
	}
}

// counter reads one counter from the snapshot, 0 when absent.
func counter(d *runData, name string) int64 {
	if d.Snapshot == nil {
		return 0
	}
	return d.Snapshot.Counters[name]
}

// fmtDur renders nanoseconds with sensible rounding for a report.
func fmtDur(ns int64) string {
	dur := time.Duration(ns)
	switch {
	case dur >= time.Second:
		return dur.Round(time.Millisecond).String()
	case dur >= time.Millisecond:
		return dur.Round(time.Microsecond).String()
	default:
		return dur.String()
	}
}

// short abbreviates a hex digest for table cells.
func short(hexDigest string) string {
	if len(hexDigest) > 12 {
		return hexDigest[:12]
	}
	return hexDigest
}

// cell sanitizes a string for a markdown table cell.
func cell(s string) string {
	s = strings.ReplaceAll(s, "|", "\\|")
	return strings.ReplaceAll(s, "\n", " ")
}
