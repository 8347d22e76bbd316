// Servd bench suite (BENCH_servd.json, see bench_report_test.go): the full
// HTTP round trip of a deduped POST /scenarios, including the store's
// integrity re-verification of the committed artifact, with the service
// counters, so regressions in the hot serve path land in one reviewable
// file.
package cpsguard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cpsguard/internal/manifest"
	"cpsguard/internal/servd"
	"cpsguard/internal/telemetry"
)

// benchRunner writes a fixed-size valid bundle — the benchmark populates the
// store once through it, then measures pure cache hits.
type benchRunner struct{ csv []byte }

func (r benchRunner) Run(ctx context.Context, sc servd.ScenarioConfig, dir string) error {
	path := filepath.Join(dir, sc.ArtifactName())
	if err := os.WriteFile(path, r.csv, 0o644); err != nil {
		return err
	}
	m := manifest.New("cpsservd", int64(sc.Seed))
	m.SetConfig(sc.FlagMap())
	m.AddOutput(path)
	m.Finish()
	return m.Write(dir)
}

// servdCacheHitOp returns one deduped submit: HTTP POST → config
// canonicalization → store lookup → artifact digest re-verification →
// status JSON. The store holds one ~2 KB entry, the realistic size of a
// figure CSV, committed through the service before the first op.
func servdCacheHitOp(tb testing.TB) func() error {
	store, _, err := servd.Open(filepath.Join(tb.TempDir(), "store"))
	if err != nil {
		tb.Fatal(err)
	}
	csv := bytes.Repeat([]byte("n,sigma,profit,defense\n3,0.25,41.5,12.0\n"), 50)
	srv, err := servd.New(servd.Options{Store: store, Runner: benchRunner{csv}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	tb.Cleanup(hs.Close)

	post := func(url string) ([]byte, error) {
		resp, err := http.Post(url, "application/json", strings.NewReader(`{"figure":"5","quick":true}`))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("submit: %d %s", resp.StatusCode, data)
		}
		return data, err
	}
	commits := telemetry.Default().Counter("servd.store_commits")
	before := commits.Value()
	if _, err := post(hs.URL + "/scenarios?wait=1"); err != nil {
		tb.Fatal(err)
	}
	if commits.Value() == before {
		tb.Fatal("populating submit recorded no servd.store_commits")
	}
	return func() error {
		data, err := post(hs.URL + "/scenarios")
		if err == nil && !bytes.Contains(data, []byte(`"cached": true`)) {
			err = fmt.Errorf("not a cache hit: %s", data)
		}
		return err
	}
}

// checkServd fails unless the counted op was a recorded cache hit. (The
// store commit it hits is checked where servdCacheHitOp populates the
// store, outside the counted op.)
func checkServd(t *testing.T, e map[string]benchEntry, _ bool) {
	if c := e["ServdCacheHit"].Counters; c["servd.cache_hits"] == 0 {
		t.Errorf("service counters missing from the counted op: %v", c)
	}
}
