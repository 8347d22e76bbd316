// Package servd is the long-lived scenario-analysis service behind
// cmd/cpsservd: an HTTP API over the same experiment runners the CLI tools
// use, backed by a content-addressed on-disk result store keyed by the
// manifest config checksum. Identical requests dedupe — concurrent
// duplicates coalesce onto one in-flight run via single-flight, completed
// ones are served from the store with their artifact digests re-verified —
// and the robustness stack (bounded admission, per-key circuit breaker,
// capped-backoff retries, graceful drain) keeps the process serving typed
// errors instead of crashing when solves fail or load spikes.
//
// The package splits along its failure domains:
//
//	config.go      ScenarioConfig: request validation + canonical key
//	store.go       content-addressed store, recovery, quarantine
//	runner.go      one scenario → one run-bundle directory
//	breaker.go     per-key circuit breaker
//	server.go      HTTP API, worker pool, single-flight, drain
package servd

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cpsguard/internal/core"
	"cpsguard/internal/experiments"
	"cpsguard/internal/manifest"
)

// Limits that keep one request from monopolizing the service. Operators
// running genuinely bigger scenarios should use the CLI/shard path — the
// service is sized for interactive, heavily-deduped traffic.
const (
	// MaxTrials bounds per-request trial counts.
	MaxTrials = 200
	// MaxGridPoints bounds each axis override.
	MaxGridPoints = 32
	// maxBodyBytes bounds one POST /scenarios body.
	maxBodyBytes = 1 << 20
)

// ScenarioConfig is the body of POST /scenarios: one experiment figure plus
// the sweep parameters cpsexp would take as flags. The zero value of every
// field means "the tool default", exactly as an unset flag would, so the
// canonical key of {"figure":"5"} equals the key of the same request with
// the defaults spelled out.
type ScenarioConfig struct {
	// Figure selects the experiment by its registry name (experiments.Names:
	// "2".."7" and the extensions). Required.
	Figure string `json:"figure"`
	// Trials is the number of random ownership draws per point (default 5).
	Trials int `json:"trials,omitempty"`
	// Seed drives all randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Mode is the noise mode: "graph" (default) or "matrix".
	Mode string `json:"mode,omitempty"`
	// Quick shrinks grids and trial counts like cpsexp -quick.
	Quick bool `json:"quick,omitempty"`
	// ActorGrid overrides the actor-count axis.
	ActorGrid []int `json:"actor_grid,omitempty"`
	// SigmaGrid overrides the knowledge-noise axis.
	SigmaGrid []float64 `json:"sigma_grid,omitempty"`
	// AttackBudget is the SA's budget (default 6).
	AttackBudget float64 `json:"attack_budget,omitempty"`
	// DefenseBudget is the system-wide defense budget (default 12).
	DefenseBudget float64 `json:"defense_budget,omitempty"`
	// PaSamples is the attack-probability sample count (default 16).
	PaSamples int `json:"pa_samples,omitempty"`
	// DeadlineMS is a per-request solve deadline in milliseconds,
	// clamped to the server's maximum. 0 uses the server default. The
	// deadline is an admission parameter, not part of the result — it is
	// excluded from the content-address key.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ParseScenarioConfig decodes and validates one request body.
func ParseScenarioConfig(data []byte) (ScenarioConfig, error) {
	var sc ScenarioConfig
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("servd: bad scenario config: %w", err)
	}
	return sc, sc.Validate()
}

// Validate checks ranges and enumerations. It never mutates sc: defaults
// are applied by FlagMap/Experiment so the stored config stays minimal.
func (sc ScenarioConfig) Validate() error {
	if _, ok := experiments.Lookup(sc.Figure); !ok {
		return fmt.Errorf("servd: unknown figure %q (want one of %s)",
			sc.Figure, strings.Join(experiments.Names(), ", "))
	}
	switch sc.Mode {
	case "", "graph", "matrix":
	default:
		return fmt.Errorf("servd: unknown mode %q (want graph or matrix)", sc.Mode)
	}
	if sc.Trials < 0 || sc.Trials > MaxTrials {
		return fmt.Errorf("servd: trials %d out of range [0,%d]", sc.Trials, MaxTrials)
	}
	if len(sc.ActorGrid) > MaxGridPoints || len(sc.SigmaGrid) > MaxGridPoints {
		return fmt.Errorf("servd: grid overrides capped at %d points", MaxGridPoints)
	}
	for _, n := range sc.ActorGrid {
		if n < 1 || n > 64 {
			return fmt.Errorf("servd: actor count %d out of range [1,64]", n)
		}
	}
	for _, s := range sc.SigmaGrid {
		if s < 0 || s > 1 {
			return fmt.Errorf("servd: sigma %v out of range [0,1]", s)
		}
	}
	if sc.AttackBudget < 0 || sc.DefenseBudget < 0 {
		return fmt.Errorf("servd: budgets must be non-negative")
	}
	if sc.PaSamples < 0 || sc.PaSamples > 256 {
		return fmt.Errorf("servd: pa_samples %d out of range [0,256]", sc.PaSamples)
	}
	if sc.DeadlineMS < 0 {
		return fmt.Errorf("servd: deadline_ms must be non-negative")
	}
	return nil
}

// mode resolves the effective noise mode.
func (sc ScenarioConfig) mode() core.NoiseMode {
	if sc.Mode == "matrix" {
		return core.MatrixNoise
	}
	return core.GraphNoise
}

// FlagMap renders the effective configuration — defaults applied — as the
// flag-style name→value map whose manifest.ConfigChecksum is the scenario's
// content address. The rendering deliberately mirrors how cpsexp's flags
// stringify, so equal effective configurations collapse to one key no
// matter which fields the client spelled out. DeadlineMS is excluded: it
// changes how long we are willing to wait, not what is computed.
func (sc ScenarioConfig) FlagMap() map[string]string {
	trials := sc.Trials
	if trials == 0 {
		trials = 5
	}
	seed := sc.Seed
	if seed == 0 {
		seed = 1
	}
	mode := sc.Mode
	if mode == "" {
		mode = "graph"
	}
	m := map[string]string{
		"figure": sc.Figure,
		"trials": strconv.Itoa(trials),
		"seed":   strconv.FormatUint(seed, 10),
		"mode":   mode,
		"quick":  strconv.FormatBool(sc.Quick),
	}
	if len(sc.ActorGrid) > 0 {
		parts := make([]string, len(sc.ActorGrid))
		for i, n := range sc.ActorGrid {
			parts[i] = strconv.Itoa(n)
		}
		m["actor-grid"] = strings.Join(parts, ",")
	}
	if len(sc.SigmaGrid) > 0 {
		parts := make([]string, len(sc.SigmaGrid))
		for i, s := range sc.SigmaGrid {
			parts[i] = strconv.FormatFloat(s, 'g', -1, 64)
		}
		m["sigma-grid"] = strings.Join(parts, ",")
	}
	if sc.AttackBudget > 0 {
		m["attack-budget"] = strconv.FormatFloat(sc.AttackBudget, 'g', -1, 64)
	}
	if sc.DefenseBudget > 0 {
		m["defense-budget"] = strconv.FormatFloat(sc.DefenseBudget, 'g', -1, 64)
	}
	if sc.PaSamples > 0 {
		m["pa-samples"] = strconv.Itoa(sc.PaSamples)
	}
	return m
}

// Key is the scenario's content address: the order-insensitive SHA-256 of
// its effective configuration, identical to the ConfigSHA256 the run's
// manifest will carry.
func (sc ScenarioConfig) Key() string {
	return manifest.ConfigChecksum(sc.FlagMap())
}

// RunIDForKey derives the client-facing run ID from a content key. It is a
// pure function of the key so the same scenario always has the same run ID,
// across restarts and across the processes of a fleet.
func RunIDForKey(key string) string {
	if len(key) > 16 {
		key = key[:16]
	}
	return "r-" + key
}

// ArtifactName returns the scenario's primary CSV artifact name.
func (sc ScenarioConfig) ArtifactName() string { return "fig" + sc.Figure + ".csv" }

// String renders a compact human label for logs.
func (sc ScenarioConfig) String() string {
	m := sc.FlagMap()
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+m[k])
	}
	return strings.Join(parts, " ")
}
