// cpsexp's -fig names come from the figure registry: its help text and its
// unknown-figure error list every registry name, and an unknown name fails
// before the run writes a journal.
package cpsguard

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cpsguard/internal/experiments"
)

func TestCpsexpFigureNamesFromRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the cpsexp binary; skipped in -short")
	}
	dir := t.TempDir()
	cpsexp := buildTool(t, dir, "cpsexp")
	help, _ := exec.Command(cpsexp, "-h").CombinedOutput()
	journal := filepath.Join(dir, "run.journal")
	out, err := exec.Command(cpsexp, "-fig", "bogus", "-journal", journal).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("cpsexp -fig bogus: err = %v, want exit 1\n%s", err, out)
	}
	for _, name := range experiments.Names() {
		if !strings.Contains(string(help), ", "+name) && !strings.Contains(string(help), "one of "+name) {
			t.Errorf("-fig help does not list %q:\n%s", name, help)
		}
		if !strings.Contains(string(out), name) {
			t.Errorf("unknown-figure error does not list %q:\n%s", name, out)
		}
	}
	if _, err := os.Stat(journal); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("unknown figure left a journal behind (stat err = %v)", err)
	}
}
