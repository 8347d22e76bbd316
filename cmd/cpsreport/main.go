// Command cpsreport turns a run's observability directory (written by
// cpsexp/cpsgen -obs) into a human-readable markdown report: run identity
// and flags from manifest.json, per-stage and per-trial timing from the
// metrics.json span window, fallbacks and degradations from the counters,
// warn/error highlights from events.jsonl, and — when the run used a
// checkpoint journal — per-trial outcomes joined by trial ID.
//
// Usage:
//
//	cpsreport -run DIR [-o report.md] [-journal FILE]
//	cpsreport -run DIR -diff DIR2
//	cpsreport -trace-merge DIR [-o trace-fleet.json]
//
// -diff compares two run directories instead: manifest differences (seed,
// flags, config and artifact digests) plus deltas over the deterministic
// telemetry counters, so two runs of the same seeded sweep can be checked
// for behavioral drift artifact-by-artifact.
//
// -trace-merge stitches every per-process trace.json under DIR (the
// supervisor's plus one per shard) into a single fleet timeline; see
// tracemerge.go.
//
// Only manifest.json is required; every other artifact degrades to a
// "missing" note so a crashed run still yields a report.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cpsguard/internal/atomicio"
	"cpsguard/internal/checkpoint"
	"cpsguard/internal/cli"
	"cpsguard/internal/manifest"
	"cpsguard/internal/obs"
	"cpsguard/internal/screen"
	"cpsguard/internal/telemetry"
)

func main() {
	runDir := flag.String("run", "", "run directory to report on (holds manifest.json etc.)")
	diffDir := flag.String("diff", "", "second run directory: compare instead of report")
	journalPath := flag.String("journal", "", "checkpoint journal to join trials against (default: auto-detect from the manifest)")
	out := flag.String("o", "", "write the report to this file (default stdout)")
	traceMerge := flag.String("trace-merge", "", "merge every trace.json under this directory into one fleet timeline")
	flag.Parse()

	if *traceMerge != "" {
		summary, err := mergeTraces(*traceMerge, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpsreport: -trace-merge: %v\n", err)
			os.Exit(1)
		}
		cli.MustWrite(os.Stdout, "stdout", []byte(summary))
		return
	}
	if *runDir == "" {
		fmt.Fprintln(os.Stderr, "cpsreport: -run DIR is required")
		flag.Usage()
		os.Exit(2)
	}
	a, err := loadRun(*runDir, *journalPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpsreport: -run: %v\n", err)
		os.Exit(1)
	}
	var report string
	if *diffDir != "" {
		b, err := loadRun(*diffDir, "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpsreport: -diff: %v\n", err)
			os.Exit(1)
		}
		report = renderDiff(a, b)
	} else {
		report = renderReport(a)
	}
	if *out == "" {
		cli.MustWrite(os.Stdout, "stdout", []byte(report))
		return
	}
	if err := atomicio.MkdirAllAndWrite(*out, []byte(report), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "cpsreport: %v\n", err)
		os.Exit(1)
	}
}

// loadRun reads a run directory. The manifest is mandatory (it is the run's
// identity); metrics, trace, events, and journal degrade to Missing notes. A
// missing or unreadable manifest names the directory at fault, so a -diff
// between two directories always says which side is broken.
func loadRun(dir, journalPath string) (*runData, error) {
	if fi, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("run directory %s: %w", dir, err)
	} else if !fi.IsDir() {
		return nil, fmt.Errorf("run directory %s is not a directory", dir)
	}
	m, err := manifest.Load(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%s has no manifest.json — not a run directory (runs are written with -obs DIR)", dir)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: unreadable manifest: %w", dir, err)
	}
	d := &runData{Dir: dir, Manifest: m}
	miss := func(format string, args ...any) {
		d.Missing = append(d.Missing, fmt.Sprintf(format, args...))
	}

	if data, err := os.ReadFile(filepath.Join(dir, "metrics.json")); err != nil {
		miss("metrics.json: %v", err)
	} else if snap, err := telemetry.ReadSnapshot(data); err != nil {
		miss("metrics.json: %v", err)
	} else {
		d.Snapshot = snap
	}

	// screen.json only exists for -screen-k runs, so its absence is normal —
	// no Missing note; a present-but-corrupt file still degrades loudly.
	if data, err := os.ReadFile(filepath.Join(dir, "screen.json")); err == nil {
		var r screen.Ranking
		if err := json.Unmarshal(data, &r); err != nil {
			miss("screen.json: %v", err)
		} else {
			d.Screen = &r
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		miss("screen.json: %v", err)
	}

	if data, err := os.ReadFile(filepath.Join(dir, "trace.json")); err != nil {
		miss("trace.json: %v", err)
	} else if tr, err := telemetry.ReadChromeTrace(data); err != nil {
		miss("trace.json: %v", err)
	} else {
		d.Trace = tr
	}

	events, torn, err := loadEvents(filepath.Join(dir, "events.jsonl"))
	d.Events = events // whatever parsed is worth rendering, even after an error
	if err != nil {
		miss("events.jsonl: %v (%d event(s) recovered before the error)", err, len(events))
	}
	if torn > 0 {
		miss("events.jsonl: %d torn line(s) skipped (crashed mid-write?); %d event(s) recovered", torn, len(events))
	}

	if journalPath == "" {
		journalPath = detectJournal(m)
	}
	if journalPath != "" {
		if rep, err := loadJournal(journalPath, dir); err != nil {
			miss("journal %s: %v", journalPath, err)
		} else {
			d.Journal = rep
		}
	}
	return d, nil
}

// loadEvents parses an events.jsonl stream. A crash can tear the file
// mid-record — the torn line(s) are skipped and counted so the report can
// say so, and everything that did parse is returned even when the scanner
// itself fails partway (oversized line, read error): a truncated stream
// degrades the report, it must never abort it.
func loadEvents(path string) (events []obs.DecodedEvent, torn int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev, err := obs.DecodeJSONL(line)
		if err != nil {
			torn++
			continue
		}
		events = append(events, ev)
	}
	return events, torn, sc.Err()
}

// detectJournal finds a journal among the manifest's outputs: cpsexp
// registers the -journal file there, and it is the only non-CSV/JSON
// output a sweep produces.
func detectJournal(m *manifest.Manifest) string {
	for _, out := range m.Outputs {
		base := strings.ToLower(filepath.Base(out.Path))
		if strings.Contains(base, "journal") || strings.HasSuffix(base, ".jnl") {
			return out.Path
		}
	}
	return ""
}

// loadJournal opens a checkpoint journal, trying the recorded path first
// and falling back to the run directory (the run may have been archived
// together with its artifacts).
func loadJournal(path, dir string) (*checkpoint.Replay, error) {
	rep, err := checkpoint.Load(path)
	if err == nil {
		return rep, nil
	}
	if alt := filepath.Join(dir, filepath.Base(path)); alt != path {
		if rep2, err2 := checkpoint.Load(alt); err2 == nil {
			return rep2, nil
		}
	}
	return nil, err
}
