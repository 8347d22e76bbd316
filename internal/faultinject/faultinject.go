// Package faultinject is a deterministic fault-injection harness for
// chaos-style testing of the solve pipeline. An Injector is armed with
// (site, kind, rate) rules; solver layers expose named sites ("lp.pivot",
// "milp.node", "experiments.trial", ...) through their
// Hook options, and the injector decides — reproducibly, from a seed —
// whether each call fires a fault.
//
// Determinism: whether call n at site s fires is a pure function of
// (seed, s, n), so a chaos test that fails replays identically under the
// same seed regardless of goroutine scheduling. Per-site call counters are
// independent, so adding instrumentation at one site does not shift the
// fault pattern at another.
//
// The injector can produce every failure class the resilience layer is
// built to absorb:
//
//   - Cancel / Timeout: returns context.Canceled / context.DeadlineExceeded
//     from the hook, which the lp/milp solvers surface as their
//     cancellation statuses.
//   - Error: returns ErrInjected, surfaced by solvers as an abort
//     (lp.SolveError wrapping ErrInjected).
//   - Panic: panics at the site, exercising the recover paths.
//   - Iteration-limit exhaustion: not a hook fault — use ClampLP to shrink
//     a solve's pivot budget so it terminates with lp.IterationLimit.
//   - NaN/Inf poisoning: use Poison to corrupt numeric inputs before
//     model ingestion, exercising validation and recovery.
//   - Torn writes: use Tear to keep only a deterministic prefix of a
//     record about to hit disk, simulating a crash mid-append; the
//     checkpoint journal exposes sites "checkpoint.append" and
//     "checkpoint.sync" for error injection on the write path itself.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"cpsguard/internal/lp"
	"cpsguard/internal/rng"
)

// Kind is a failure class the injector can produce at a site.
type Kind int8

const (
	// Cancel makes the hook return context.Canceled.
	Cancel Kind = iota
	// Timeout makes the hook return context.DeadlineExceeded.
	Timeout
	// Error makes the hook return ErrInjected.
	Error
	// Panic makes the hook panic with a *Fault value.
	Panic
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Cancel:
		return "cancel"
	case Timeout:
		return "timeout"
	case Error:
		return "error"
	case Panic:
		return "panic"
	default:
		return fmt.Sprintf("Kind(%d)", int8(k))
	}
}

// ErrInjected is the cause of every Error-kind fault; test assertions use
// errors.Is against it to tell injected failures from organic ones.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault describes one fired fault. It is the hook's error (wrapped around
// ErrInjected or a context error) and, for Panic kind, the panic value.
type Fault struct {
	Site string
	Kind Kind
	Call int // 1-based call index at the site
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: %s at %s (call %d)", f.Kind, f.Site, f.Call)
}

// Unwrap lets errors.Is see through to ErrInjected or the context error.
func (f *Fault) Unwrap() error {
	switch f.Kind {
	case Cancel:
		return context.Canceled
	case Timeout:
		return context.DeadlineExceeded
	default:
		return ErrInjected
	}
}

// rule is one armed (kind, rate) pair for a site pattern.
type rule struct {
	kind Kind
	rate float64
}

// Injector decides deterministically whether hooked call sites fail. It is
// safe for concurrent use; per-site call ordering under concurrency is
// resolved by the per-site atomic counter, so the *set* of fired calls is
// deterministic even when goroutine interleaving is not.
type Injector struct {
	seed uint64

	mu    sync.Mutex
	rules map[string][]rule // site (or "*") → rules
	calls map[string]int    // site → hook invocations
	fired []Fault           // log of fired faults, in firing order
}

// New returns an injector whose decisions derive from seed. An injector
// with no armed rules never fires.
func New(seed uint64) *Injector {
	return &Injector{
		seed:  seed,
		rules: map[string][]rule{},
		calls: map[string]int{},
	}
}

// Arm makes kind fire at sites matching pattern with the given probability
// per call. Pattern is an exact site name or "*" for every site. Multiple
// rules may be armed; the first that fires (exact-match rules before
// wildcards, in arming order) wins for a given call.
func (in *Injector) Arm(pattern string, kind Kind, rate float64) *Injector {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rules[pattern] = append(in.rules[pattern], rule{kind: kind, rate: rate})
	return in
}

// Hook is the lp.Hook-compatible checkpoint. Wire it into lp.Options.Hook,
// milp.Options.Hook, or an experiment FaultPolicy.
func (in *Injector) Hook(site string) error {
	f := in.fire(site)
	if f == nil {
		return nil
	}
	if f.Kind == Panic {
		panic(f)
	}
	return f
}

// fire advances the site's call counter and returns the fault for this
// call, or nil.
func (in *Injector) fire(site string) *Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.calls[site]++
	n := in.calls[site]
	for _, pattern := range []string{site, "*"} {
		for ri, r := range in.rules[pattern] {
			if decide(in.seed, site, ri, n, r.rate) {
				f := Fault{Site: site, Kind: r.kind, Call: n}
				in.fired = append(in.fired, f)
				return &f
			}
		}
	}
	return nil
}

// decide is the pure firing function: one rng draw keyed on
// (seed, site, rule, call).
func decide(seed uint64, site string, ruleIdx, call int, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(site))
	key := seed ^ h.Sum64() ^ (uint64(ruleIdx) << 56)
	return rng.Derive(key, uint64(call)).Float64() < rate
}

// Calls reports how many times the site's hook has been consulted.
func (in *Injector) Calls(site string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[site]
}

// Fired returns a copy of the log of fired faults, in firing order.
func (in *Injector) Fired() []Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Fault(nil), in.fired...)
}

// FiredAt counts fired faults at the given site ("*" for all sites).
func (in *Injector) FiredAt(site string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, f := range in.fired {
		if site == "*" || f.Site == site {
			n++
		}
	}
	return n
}

// ClampLP returns opts with MaxIter clamped to at most maxIter, simulating
// iteration-limit exhaustion: the solve terminates with lp.IterationLimit
// (carrying its partial state) once the shrunken budget is spent.
func ClampLP(opts lp.Options, maxIter int) lp.Options {
	if opts.MaxIter == 0 || opts.MaxIter > maxIter {
		opts.MaxIter = maxIter
	}
	return opts
}

// Tear returns a deterministically chosen strict prefix of data — a torn
// write. At least one trailing byte is dropped, so appending the result to
// a file reproduces exactly what a crash between write(2) and completion
// leaves behind. The cut point is a pure function of (seed, tag).
func (in *Injector) Tear(tag string, data []byte) []byte {
	if len(data) == 0 {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte("tear:" + tag))
	cut := 1 + rng.Derive(in.seed^h.Sum64(), 0).Intn(len(data))
	if cut >= len(data) {
		cut = len(data) - 1
	}
	return data[:cut]
}

// Poison corrupts values[i] to NaN or ±Inf with probability rate per entry,
// deterministically from the injector's seed and the given tag. It returns
// the number of entries poisoned. Use it on objective/bound/RHS slices
// before model construction to exercise ingestion validation.
func (in *Injector) Poison(tag string, values []float64, rate float64) int {
	h := fnv.New64a()
	h.Write([]byte("poison:" + tag))
	key := in.seed ^ h.Sum64()
	poisons := [3]float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	n := 0
	for i := range values {
		rs := rng.Derive(key, uint64(i))
		if rs.Float64() < rate {
			values[i] = poisons[rs.Intn(3)]
			n++
		}
	}
	return n
}
