package servd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cpsguard/internal/experiments"
	"cpsguard/internal/lp"
	"cpsguard/internal/manifest"
)

// stubRunner is a Runner that writes a deterministic minimal bundle. It can
// block (to hold a worker), fail its first N calls, and signal run starts.
type stubRunner struct {
	mu       sync.Mutex
	calls    int
	failures int           // fail this many calls before succeeding
	block    chan struct{} // when non-nil, Run waits on it (or ctx)
	started  chan string   // when non-nil, receives the staging dir per call
	payload  []byte        // CSV bytes (default deterministic per config)
}

func (r *stubRunner) Calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

func (r *stubRunner) Run(ctx context.Context, sc ScenarioConfig, dir string) error {
	r.mu.Lock()
	r.calls++
	fail := r.calls <= r.failures
	payload := r.payload
	r.mu.Unlock()
	if r.started != nil {
		r.started <- dir
	}
	if r.block != nil {
		select {
		case <-r.block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if fail {
		return &lp.SolveError{Problem: "stub", Stage: "stub.solve",
			Err: errors.New("injected stub failure")}
	}
	if payload == nil {
		payload = []byte("point,value\n" + sc.String() + ",1\n")
	}
	return writeStubBundle(sc, dir, payload)
}

// writeStubBundle produces the minimal valid run bundle: the CSV artifact,
// an event stream, and a manifest whose ConfigSHA256 is the scenario key
// and whose output digest matches the CSV — enough for Store.Commit's
// verification to pass, like a real cli run bundle would.
func writeStubBundle(sc ScenarioConfig, dir string, csv []byte) error {
	path := filepath.Join(dir, sc.ArtifactName())
	if err := os.WriteFile(path, csv, 0o644); err != nil {
		return err
	}
	// Append like the real bundle writer does — a live stream is only ever
	// appended to, never truncated.
	ev := `{"level":"info","msg":"stub run","fields":{}}` + "\n"
	ef, err := os.OpenFile(filepath.Join(dir, "events.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := ef.WriteString(ev); err != nil {
		ef.Close()
		return err
	}
	if err := ef.Close(); err != nil {
		return err
	}
	m := manifest.New("cpsservd", int64(sc.Seed))
	m.SetConfig(sc.FlagMap())
	m.AddOutput(path)
	m.Finish()
	return m.Write(dir)
}

// testServer wires a Store + stub + Server + httptest listener.
type testServer struct {
	t     *testing.T
	srv   *Server
	store *Store
	stub  *stubRunner
	http  *httptest.Server
}

func newTestServer(t *testing.T, stub *stubRunner, mutate func(*Options)) *testServer {
	t.Helper()
	store, _, err := Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Store: store, Runner: stub, Workers: 2, QueueDepth: 4}
	if mutate != nil {
		mutate(&opts)
	}
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return &testServer{t: t, srv: srv, store: store, stub: stub, http: hs}
}

// post submits a scenario body and decodes the response.
func (ts *testServer) post(body string, wait bool) (int, http.Header, RunStatus) {
	ts.t.Helper()
	url := ts.http.URL + "/scenarios"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var st RunStatus
	if resp.StatusCode < 300 || resp.StatusCode == http.StatusBadGateway {
		if err := json.Unmarshal(data, &st); err != nil {
			ts.t.Fatalf("bad status body (%d): %v: %s", resp.StatusCode, err, data)
		}
	} else {
		var eb struct {
			Error ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(data, &eb); err != nil {
			ts.t.Fatalf("bad error body (%d): %v: %s", resp.StatusCode, err, data)
		}
		st.Error = &eb.Error
	}
	return resp.StatusCode, resp.Header, st
}

func (ts *testServer) get(path string) (int, []byte) {
	ts.t.Helper()
	resp, err := http.Get(ts.http.URL + path)
	if err != nil {
		ts.t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func TestSubmitDedupSequential(t *testing.T) {
	stub := &stubRunner{payload: []byte("col\n42\n")}
	ts := newTestServer(t, stub, nil)

	code, _, st := ts.post(`{"figure":"5","quick":true}`, true)
	if code != http.StatusOK || st.Status != "done" || st.Cached {
		t.Fatalf("first submit: code %d status %+v", code, st)
	}
	if stub.Calls() != 1 {
		t.Fatalf("first submit ran %d times", stub.Calls())
	}
	if len(st.Artifacts) != 1 || st.Artifacts[0].Name != "fig5.csv" {
		t.Fatalf("artifacts = %+v", st.Artifacts)
	}

	// Identical request: served from the store, no new run.
	code, _, st2 := ts.post(`{"figure":"5","quick":true}`, false)
	if code != http.StatusOK || !st2.Cached || st2.Status != "done" {
		t.Fatalf("dedup hit: code %d status %+v", code, st2)
	}
	// Same effective config with the defaults spelled out and fields
	// reordered: the canonical key collapses it onto the same entry.
	code, _, st3 := ts.post(`{"seed":1,"trials":5,"mode":"graph","figure":"5","quick":true}`, false)
	if code != http.StatusOK || !st3.Cached {
		t.Fatalf("canonicalized dedup hit: code %d status %+v", code, st3)
	}
	if stub.Calls() != 1 {
		t.Fatalf("dedup hits re-ran the scenario: %d calls", stub.Calls())
	}
	if st2.RunID != st.RunID || st3.RunID != st.RunID {
		t.Fatalf("run IDs diverged: %s %s %s", st.RunID, st2.RunID, st3.RunID)
	}

	// The served artifact is byte-identical across hits and digest-labeled.
	code, body := ts.get("/runs/" + st.RunID + "/artifacts/fig5.csv")
	if code != http.StatusOK || !bytes.Equal(body, stub.payload) {
		t.Fatalf("artifact: code %d body %q", code, body)
	}
	if got := sha256hex(body); got != st.Artifacts[0].SHA256 {
		t.Fatalf("artifact digest %s, manifest says %s", got, st.Artifacts[0].SHA256)
	}
}

func TestConcurrentSubmitsCoalesce(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), started: make(chan string, 1)}
	ts := newTestServer(t, stub, nil)
	body := `{"figure":"3","quick":true}`

	type result struct {
		code int
		st   RunStatus
	}
	results := make(chan result, 1)
	go func() {
		code, _, st := ts.post(body, true)
		results <- result{code, st}
	}()
	<-stub.started // the run is on a worker, holding the single-flight slot

	// A concurrent duplicate coalesces onto the in-flight run.
	code, _, st := ts.post(body, false)
	if code != http.StatusAccepted || !st.Coalesced {
		t.Fatalf("duplicate: code %d status %+v", code, st)
	}
	close(stub.block)
	r := <-results
	if r.code != http.StatusOK || r.st.Status != "done" {
		t.Fatalf("waiter: code %d status %+v", r.code, r.st)
	}
	if stub.Calls() != 1 {
		t.Fatalf("coalesced submits ran %d times", stub.Calls())
	}
}

func TestQueueSaturationReturns429(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), started: make(chan string, 8)}
	ts := newTestServer(t, stub, func(o *Options) {
		o.Workers = 1
		o.QueueDepth = 1
	})

	// First scenario occupies the only worker...
	if code, _, _ := ts.post(`{"figure":"2","seed":11}`, false); code != http.StatusAccepted {
		t.Fatalf("submit A: code %d", code)
	}
	<-stub.started
	// ...second fills the queue...
	if code, _, _ := ts.post(`{"figure":"2","seed":12}`, false); code != http.StatusAccepted {
		t.Fatalf("submit B: code %d", code)
	}
	// ...third distinct scenario is refused with a typed 429 + Retry-After.
	code, hdr, st := ts.post(`{"figure":"2","seed":13}`, false)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: code %d (%+v)", code, st)
	}
	if st.Error == nil || st.Error.Kind != "queue_full" || st.Error.RetryAfterMS <= 0 {
		t.Fatalf("saturated submit error = %+v", st.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	// readyz reflects the saturation.
	if code, _ := ts.get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while saturated: %d", code)
	}

	close(stub.block) // the backlog drains; the refused scenario resubmits fine
	waitSettled(t, ts, RunIDForKey(ScenarioConfig{Figure: "2", Seed: 12}.Key()))
	if code, _, _ := ts.post(`{"figure":"2","seed":13}`, true); code != http.StatusOK {
		t.Fatalf("post-drain resubmit: code %d", code)
	}
}

// waitSettled polls GET /runs/{id} until it reports done (or times out).
func waitSettled(t *testing.T, ts *testServer, runID string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		code, body := ts.get("/runs/" + runID)
		if code == http.StatusOK && bytes.Contains(body, []byte(`"status": "done"`)) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s did not settle", runID)
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	stub := &stubRunner{failures: 2}
	ts := newTestServer(t, stub, func(o *Options) {
		o.BreakerThreshold = 2
		o.BreakerCooldown = time.Minute
		o.Clock = clock
	})
	body := `{"figure":"4","quick":true}`

	// Two failing runs: typed 502s carrying the solve taxonomy, then the
	// circuit opens.
	for i := 0; i < 2; i++ {
		code, _, st := ts.post(body, true)
		if code != http.StatusBadGateway || st.Error == nil || st.Error.Kind != "run_failed" {
			t.Fatalf("failing run %d: code %d status %+v", i, code, st)
		}
		if st.Error.Solve == nil || st.Error.Solve.Stage != "stub.solve" {
			t.Fatalf("failing run %d lost the solve taxonomy: %+v", i, st.Error)
		}
	}
	// Open circuit: fast 503, no solver work, taxonomy preserved.
	code, hdr, st := ts.post(body, false)
	if code != http.StatusServiceUnavailable || st.Error == nil || st.Error.Kind != "breaker_open" {
		t.Fatalf("open circuit: code %d status %+v", code, st)
	}
	if hdr.Get("Retry-After") == "" || st.Error.Solve == nil {
		t.Fatalf("open-circuit response incomplete: hdr %v err %+v", hdr, st.Error)
	}
	if stub.Calls() != 2 {
		t.Fatalf("open circuit still reached the runner: %d calls", stub.Calls())
	}

	// Cooldown passes: one probe is admitted, succeeds, circuit closes.
	advance(2 * time.Minute)
	code, _, st = ts.post(body, true)
	if code != http.StatusOK || st.Status != "done" {
		t.Fatalf("probe run: code %d status %+v", code, st)
	}
	if n := ts.srv.breaker.OpenCount(); n != 0 {
		t.Fatalf("circuit still open after successful probe: %d", n)
	}
	// And the result is now served from the store.
	if code, _, st := ts.post(body, false); code != http.StatusOK || !st.Cached {
		t.Fatalf("post-recovery hit: code %d status %+v", code, st)
	}
}

func TestCorruptEntryEvictedNeverServed(t *testing.T) {
	stub := &stubRunner{payload: []byte("col\ntruth\n")}
	ts := newTestServer(t, stub, nil)
	body := `{"figure":"6","quick":true}`

	_, _, st := ts.post(body, true)
	if st.Status != "done" {
		t.Fatalf("seed run: %+v", st)
	}
	// Flip bits in the committed artifact behind the store's back.
	key := ScenarioConfig{Figure: "6", Quick: true}.Key()
	entryCSV := filepath.Join(ts.store.root, "entries", key, "fig6.csv")
	if err := os.WriteFile(entryCSV, []byte("col\nlies!\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reads re-verify: the corrupt entry is refused and evicted, its bytes
	// never leave the process.
	code, data := ts.get("/runs/" + st.RunID + "/artifacts/fig6.csv")
	if code != http.StatusServiceUnavailable || bytes.Contains(data, []byte("lies!")) {
		t.Fatalf("corrupt read: code %d body %q", code, data)
	}
	if q, _ := os.ReadDir(filepath.Join(ts.store.root, "quarantine")); len(q) == 0 {
		t.Fatal("corrupt entry was not quarantined")
	}

	// Resubmission recomputes and heals the store.
	code, _, st2 := ts.post(body, true)
	if code != http.StatusOK || st2.Cached || stub.Calls() != 2 {
		t.Fatalf("healing run: code %d cached %v calls %d", code, st2.Cached, stub.Calls())
	}
	code, data = ts.get("/runs/" + st2.RunID + "/artifacts/fig6.csv")
	if code != http.StatusOK || !bytes.Equal(data, stub.payload) {
		t.Fatalf("healed artifact: code %d body %q", code, data)
	}
}

func TestGracefulDrainMidRun(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), started: make(chan string, 1)}
	ts := newTestServer(t, stub, nil)

	if code, _, _ := ts.post(`{"figure":"7","quick":true}`, false); code != http.StatusAccepted {
		t.Fatal("submit did not queue")
	}
	<-stub.started

	drained := make(chan error, 1)
	go func() { drained <- ts.srv.Drain(context.Background()) }()
	// Admission closes while the in-flight run keeps going.
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, body := ts.get("/healthz")
		if code == http.StatusOK && bytes.Contains(body, []byte(`"draining": true`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never flipped /healthz")
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, _, st := ts.post(`{"figure":"2","quick":true}`, false)
	if code != http.StatusServiceUnavailable || st.Error == nil || st.Error.Kind != "draining" {
		t.Fatalf("submit while draining: code %d status %+v", code, st)
	}
	if code, _ := ts.get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatal("readyz still ready while draining")
	}

	// The in-flight run finishes and commits: zero lost runs.
	close(stub.block)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	key := ScenarioConfig{Figure: "7", Quick: true}.Key()
	ent, err := ts.store.Get(key)
	if err != nil || ent == nil {
		t.Fatalf("in-flight run lost across drain: ent %v err %v", ent, err)
	}
	// And the on-disk index already reflects it (fsynced by Drain).
	ix, err := manifest.LoadIndex(filepath.Join(ts.store.root, manifest.IndexFilename))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Entries[key]; !ok {
		t.Fatal("drained index does not record the committed run")
	}
}

func TestDrainCancelsStuckRunsAtDeadline(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), started: make(chan string, 1)}
	ts := newTestServer(t, stub, nil)
	defer close(stub.block)

	ts.post(`{"figure":"3","seed":9}`, false)
	<-stub.started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := ts.srv.Drain(ctx); err == nil {
		t.Fatal("forced drain reported success")
	}
	// The canceled run committed nothing — no torn entry became addressable.
	if ent, _ := ts.store.Get(ScenarioConfig{Figure: "3", Seed: 9}.Key()); ent != nil {
		t.Fatal("canceled run left a committed entry")
	}
}

func TestSubmitValidation(t *testing.T) {
	ts := newTestServer(t, &stubRunner{}, nil)
	for _, body := range []string{
		`{"figure":"99"}`,
		`{"figure":"5","trials":100000}`,
		`{"figure":"5","unknown_field":1}`,
		`not json`,
	} {
		code, _, st := ts.post(body, false)
		if code != http.StatusBadRequest || st.Error == nil || st.Error.Kind != "bad_request" {
			t.Errorf("body %q: code %d error %+v", body, code, st.Error)
		}
	}
	if code, _ := ts.get("/runs/nope"); code != http.StatusNotFound {
		t.Error("unknown run ID not 404")
	}
	if code, _ := ts.get("/runs/r-x/artifacts/..%2Fescape"); code == http.StatusOK {
		t.Error("path traversal served something")
	}
}

func TestRunStatusEventsAndList(t *testing.T) {
	ts := newTestServer(t, &stubRunner{}, nil)
	_, _, st := ts.post(`{"figure":"5"}`, true)
	if st.Status != "done" {
		t.Fatalf("seed run: %+v", st)
	}
	// Status by run ID and by full content key.
	for _, id := range []string{st.RunID, st.ConfigSHA256} {
		code, body := ts.get("/runs/" + id)
		if code != http.StatusOK || !bytes.Contains(body, []byte(`"status": "done"`)) {
			t.Fatalf("status via %q: code %d body %s", id, code, body)
		}
	}
	code, body := ts.get("/runs/" + st.RunID + "/events")
	if code != http.StatusOK || !bytes.Contains(body, []byte("stub run")) {
		t.Fatalf("events: code %d body %s", code, body)
	}
	code, body = ts.get("/scenarios")
	if code != http.StatusOK || !bytes.Contains(body, []byte(st.RunID)) {
		t.Fatalf("list: code %d body %s", code, body)
	}
}

func TestEventsStreamFollowsLiveRun(t *testing.T) {
	stub := &stubRunner{block: make(chan struct{}), started: make(chan string, 1)}
	ts := newTestServer(t, stub, nil)

	ts.post(`{"figure":"2"}`, false)
	dir := <-stub.started
	line := `{"level":"info","msg":"live line"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "events.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	runID := RunIDForKey(ScenarioConfig{Figure: "2"}.Key())
	resp, err := http.Get(ts.http.URL + "/runs/" + runID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	got, err := rd.ReadString('\n')
	if err != nil || !strings.Contains(got, "live line") {
		t.Fatalf("live stream first line: %q err %v", got, err)
	}
	close(stub.block) // run settles; the stream drains to EOF
	rest, _ := io.ReadAll(rd)
	if !strings.Contains(string(rest), "stub run") {
		t.Fatalf("stream missed post-release events: %q", rest)
	}
}

func TestStoreRecoveryQuarantinesTornEntries(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	store, _, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	// One good committed entry...
	sc := ScenarioConfig{Figure: "5", Quick: true}
	stage, err := store.StageDir("r-test")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeStubBundle(sc, stage, []byte("a\n1\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Commit(sc.Key(), "r-test", stage); err != nil {
		t.Fatal(err)
	}
	// ...one torn entry (manifest is garbage), one crash leftover in flight.
	torn := filepath.Join(root, "entries", strings.Repeat("ab", 32))
	os.MkdirAll(torn, 0o755)
	os.WriteFile(filepath.Join(torn, "manifest.json"), []byte("{torn"), 0o644)
	os.MkdirAll(filepath.Join(root, "inflight", "r-dead.1"), 0o755)

	store2, rep, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 1 || len(rep.Quarantined) != 1 || rep.RemovedInflight != 1 {
		t.Fatalf("recovery report = %+v", rep)
	}
	if ent, err := store2.Get(sc.Key()); err != nil || ent == nil {
		t.Fatalf("good entry lost in recovery: %v %v", ent, err)
	}
	if ent, _ := store2.Get(strings.Repeat("ab", 32)); ent != nil {
		t.Fatal("torn entry still addressable")
	}
	if _, err := os.Stat(filepath.Join(root, "inflight", "r-dead.1")); !os.IsNotExist(err) {
		t.Fatal("crash leftover survived recovery")
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, &stubRunner{}, nil)
	code, body := ts.get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.QueueCap != 4 {
		t.Fatalf("health = %+v", h)
	}
	if code, _ := ts.get("/readyz"); code != http.StatusOK {
		t.Fatal("fresh server not ready")
	}
}

func TestRunIDStableAcrossRestart(t *testing.T) {
	sc := ScenarioConfig{Figure: "5", Quick: true}
	root := filepath.Join(t.TempDir(), "store")
	store, _, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Store: store, Runner: &stubRunner{}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	resp, err := http.Post(hs.URL+"/scenarios?wait=1", "application/json",
		strings.NewReader(`{"figure":"5","quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	hs.Close()
	srv.Close()

	// A new process over the same store serves the old run ID instantly.
	store2, rep, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 1 {
		t.Fatalf("restart recovery = %+v", rep)
	}
	stub2 := &stubRunner{}
	srv2, err := New(Options{Store: store2, Runner: stub2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	resp, err = http.Get(hs2.URL + "/runs/" + RunIDForKey(sc.Key()))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"status": "done"`)) {
		t.Fatalf("restarted status: %d %s", resp.StatusCode, data)
	}
	resp, err = http.Post(hs2.URL+"/scenarios", "application/json",
		strings.NewReader(`{"figure":"5","quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(data, []byte(`"cached": true`)) || stub2.Calls() != 0 {
		t.Fatalf("restarted dedup miss (calls %d): %s", stub2.Calls(), data)
	}
}

func TestConfigKeyProperties(t *testing.T) {
	a := ScenarioConfig{Figure: "5"}
	b := ScenarioConfig{Figure: "5", Trials: 5, Seed: 1, Mode: "graph"}
	if a.Key() != b.Key() {
		t.Fatal("defaults spelled out changed the key")
	}
	c := ScenarioConfig{Figure: "5", Seed: 2}
	if a.Key() == c.Key() {
		t.Fatal("different seeds share a key")
	}
	d := ScenarioConfig{Figure: "5", DeadlineMS: 30000}
	if a.Key() != d.Key() {
		t.Fatal("deadline (admission parameter) leaked into the content key")
	}
	if RunIDForKey(a.Key()) != "r-"+a.Key()[:16] {
		t.Fatalf("run ID scheme changed: %s", RunIDForKey(a.Key()))
	}
}

// TestValidateAcceptsRegistryFigures: the service accepts exactly the
// figure registry's paper and extension names; the interventions sweep stays
// CLI-only.
func TestValidateAcceptsRegistryFigures(t *testing.T) {
	want := []string{"2", "3", "4", "5", "6", "7",
		"baseline", "deception", "vectors", "security", "hardening"}
	var names []string
	for _, g := range []string{"paper", "ext"} {
		for _, f := range experiments.Group(g) {
			names = append(names, f.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("registry paper+ext figures = %v, want %v", names, want)
	}
	for _, f := range want {
		if err := (ScenarioConfig{Figure: f}).Validate(); err != nil {
			t.Errorf("figure %q rejected: %v", f, err)
		}
	}
	for _, f := range []string{"interventions", "all", "ext", "fig5", ""} {
		if err := (ScenarioConfig{Figure: f}).Validate(); err == nil {
			t.Errorf("figure %q accepted", f)
		}
	}
}

func TestBreakerProbeAbortReleasesSlot(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(1, time.Minute, func() time.Time { return now })
	b.Failure("k", fmt.Errorf("boom"))
	if ok, _, _, _ := b.Allow("k"); ok {
		t.Fatal("open circuit allowed")
	}
	now = now.Add(2 * time.Minute)
	ok, probe, _, _ := b.Allow("k")
	if !ok || !probe {
		t.Fatal("cooldown did not admit a probe")
	}
	if ok, _, _, _ := b.Allow("k"); ok {
		t.Fatal("second probe admitted while first in flight")
	}
	b.ProbeAbort("k")
	if ok, probe, _, _ := b.Allow("k"); !ok || !probe {
		t.Fatal("aborted probe slot not released")
	}
}
