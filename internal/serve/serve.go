package serve

import (
	"context"
	"errors"
	"io"

	"briq/internal/obs"
)

// Config configures an Engine. Every field has a disabled zero form, so an
// Engine can be a pure cache, a pure admission gate, or both.
type Config struct {
	// Fingerprint identifies the model configuration that computes cached
	// values; it is mixed into every key, so pipelines with different
	// models (trained vs heuristic, different seeds) never share entries.
	Fingerprint string
	// CacheBytes bounds the result cache; ≤ 0 disables caching.
	CacheBytes int64
	// MaxInFlight bounds concurrently admitted computations; ≤ 0 disables
	// admission control.
	MaxInFlight int
	// MaxQueue is the wait-queue watermark beyond MaxInFlight before
	// requests are shed with ErrOverloaded. < 0 (the zero form via
	// DefaultMaxQueue) defaults to 2×MaxInFlight; 0 sheds immediately
	// whenever all slots are taken.
	MaxQueue int
}

// DefaultMaxQueue marks Config.MaxQueue as "pick the default" (2×MaxInFlight).
const DefaultMaxQueue = -1

// counterNames is the stable serving-counter schema, in the order Counters
// reports them. Dashboards and the /metrics golden test key on these names.
var counterNames = []string{
	"hits", "misses", "coalesced", "stores",
	"shed_overloaded", "shed_deadline",
}

// Engine is the serving layer in front of one pipeline configuration: a
// content-addressed result cache (Lookup, Store), and a single-flight group
// composed with an admission gate (Do, Acquire). Do never touches the cache:
// callers look entries up before it and store what they computed inside it.
// All methods are safe for concurrent use, and safe on a nil *Engine (which
// degrades to computing directly).
type Engine struct {
	fingerprint string
	cache       *Cache
	adm         *admission
	flight      flightGroup
	counters    *obs.CounterSet
	maxInFlight int
}

// NewEngine builds an Engine from cfg. A config with neither caching nor
// admission enabled still dedups concurrent identical requests through the
// single-flight group.
func NewEngine(cfg Config) *Engine {
	maxQueue := cfg.MaxQueue
	if maxQueue < 0 {
		maxQueue = 2 * cfg.MaxInFlight
	}
	return &Engine{
		fingerprint: cfg.Fingerprint,
		cache:       NewCache(cfg.CacheBytes),
		adm:         newAdmission(cfg.MaxInFlight, maxQueue),
		counters:    obs.NewCounterSet(counterNames...),
		maxInFlight: cfg.MaxInFlight,
	}
}

// PageKey derives the content address of one page's entry: the model
// fingerprint, the page ID and the raw page source. A nil Engine, which
// holds no entries, returns the zero Key without hashing.
func (e *Engine) PageKey(pageID, html string) Key {
	if e == nil {
		return Key{}
	}
	return PageKeyOf(e.fingerprint, pageID, html)
}

// KeyFrom derives a content address from arbitrary content: fill writes the
// request's identity (already fingerprint-scoped) into the hash. Used by the
// corpus path, where a document's identity is its structured content rather
// than one source string.
func (e *Engine) KeyFrom(fill func(io.Writer)) Key {
	return KeyOf(e.Fingerprint(), fill)
}

// Fingerprint returns the model fingerprint the Engine was built with, ""
// on a nil Engine. Computing a trained pipeline's fingerprint hashes both
// serialized forests, so holders of its Engine read it here instead.
func (e *Engine) Fingerprint() string {
	if e == nil {
		return ""
	}
	return e.fingerprint
}

// Do runs compute exactly once across all concurrent callers of the same
// key, behind the admission gate: the first caller leads, and callers that
// arrive while it runs wait and share its value or error (shared=true,
// counted as coalesced). Nothing is kept once the flight lands, so a caller
// arriving after it computes again; callers check the cache before Do.
// Callers must treat a shared value as read-only.
//
// On a nil Engine, Do just runs compute.
func (e *Engine) Do(ctx context.Context, key Key, compute func(context.Context) (any, error)) (v any, shared bool, err error) {
	if e == nil {
		v, err = compute(ctx)
		return v, false, err
	}
	v, shared, err = e.flight.do(key, func() (any, error) {
		if err := e.acquire(ctx); err != nil {
			return nil, err
		}
		defer e.adm.release()
		return compute(ctx)
	})
	if shared {
		e.counters.Inc("coalesced")
	}
	return v, shared, err
}

// acquire claims an admission slot, counting sheds by class.
func (e *Engine) acquire(ctx context.Context) error {
	err := e.adm.acquire(ctx)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrOverloaded):
		e.counters.Inc("shed_overloaded")
	case errors.Is(err, ErrDeadlineBudget):
		e.counters.Inc("shed_deadline")
	}
	return err
}

// Acquire claims one admission slot for a computation managed outside Do —
// the batch and corpus paths admit all of a request's misses as one unit.
// The returned release must be called exactly once; it is non-nil even on
// error (a no-op).
func (e *Engine) Acquire(ctx context.Context) (release func(), err error) {
	if e == nil {
		return func() {}, nil
	}
	if err := e.acquire(ctx); err != nil {
		return func() {}, err
	}
	return e.adm.release, nil
}

// Lookup is a cache read, counted as a hit or a miss: no single-flight, no
// admission.
func (e *Engine) Lookup(key Key) (any, bool) {
	if e == nil {
		return nil, false
	}
	v, ok := e.cache.Get(key)
	if ok {
		e.counters.Inc("hits")
	} else {
		e.counters.Inc("misses")
	}
	return v, ok
}

// Store is the cache write paired with Lookup, counted when the cache keeps
// the value. The value must not be mutated by the caller afterward.
func (e *Engine) Store(key Key, v any, size int64) {
	if e == nil {
		return
	}
	if stored, _ := e.cache.Add(key, v, size); stored {
		e.counters.Inc("stores")
	}
}

// CounterNames returns the full, stable schema of the Counters map, sorted
// as Counters emits them: the event counters first, then the gauges.
func CounterNames() []string {
	return append(append([]string{}, counterNames...),
		"evictions", "bytes", "entries", "capacity_bytes",
		"in_flight", "queue_depth", "max_in_flight")
}

// Counters returns the serving counters and gauges under the stable schema
// of CounterNames. A nil Engine reports the same schema, all zero — the
// /metrics shape must not depend on whether serving is enabled.
func (e *Engine) Counters() map[string]int64 {
	out := make(map[string]int64, len(counterNames)+7)
	for _, name := range counterNames {
		out[name] = 0
	}
	out["evictions"], out["bytes"], out["entries"], out["capacity_bytes"] = 0, 0, 0, 0
	out["in_flight"], out["queue_depth"], out["max_in_flight"] = 0, 0, 0
	if e == nil {
		return out
	}
	for name, v := range e.counters.Snapshot() {
		out[name] = v
	}
	out["evictions"] = e.cache.Evictions()
	out["bytes"] = e.cache.Bytes()
	out["entries"] = e.cache.Len()
	out["capacity_bytes"] = e.cache.Capacity()
	out["in_flight"] = e.adm.inFlight()
	out["queue_depth"] = e.adm.queueDepth()
	out["max_in_flight"] = int64(e.maxInFlight)
	return out
}
