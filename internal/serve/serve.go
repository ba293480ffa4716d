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
// content-addressed result cache, a single-flight group and an admission
// gate, composed as cache → single-flight → admission → compute → store.
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

// PageKey derives the content address of one HTML page request: the model
// fingerprint, the page ID and the raw page source.
func (e *Engine) PageKey(pageID, html string) Key {
	return PageKeyOf(e.fingerprintOrEmpty(), pageID, html)
}

// BatchPageKey derives the content address of one /v1/align/batch page:
// the model fingerprint, the page's resolved ID and its source, in a domain
// of its own, since the entry holds the page's document keys rather than its
// alignments.
func (e *Engine) BatchPageKey(pageID, html string) Key {
	return pageKeyOf(e.fingerprintOrEmpty(), "batch-page", pageID, html)
}

// KeyFrom derives a content address from arbitrary content: fill writes the
// request's identity (already fingerprint-scoped) into the hash. Used by the
// corpus path, where a document's identity is its structured content rather
// than one source string.
func (e *Engine) KeyFrom(fill func(io.Writer)) Key {
	return KeyOf(e.fingerprintOrEmpty(), fill)
}

func (e *Engine) fingerprintOrEmpty() string {
	if e == nil {
		return ""
	}
	return e.fingerprint
}

// Do serves one request: a cache hit returns immediately (hit=true); a miss
// runs compute exactly once across all concurrent callers of the same key,
// behind the admission gate, and stores the result. compute returns the
// value and its approximate size in bytes; its error is never cached but is
// shared with coalesced waiters. Callers must treat the returned value as
// read-only — it may be served to other requests.
//
// On a nil Engine, Do just runs compute.
func (e *Engine) Do(ctx context.Context, key Key, compute func(context.Context) (any, int64, error)) (v any, hit bool, err error) {
	if e == nil {
		v, _, err = compute(ctx)
		return v, false, err
	}
	if v, ok := e.cache.Get(key); ok {
		e.counters.Inc("hits")
		return v, true, nil
	}
	var leaderHit bool
	v, shared, err := e.flight.do(key, func() (any, error) {
		// Double-check: a previous leader may have stored the result
		// between our cache miss and becoming leader ourselves.
		if v, ok := e.cache.Get(key); ok {
			leaderHit = true
			return v, nil
		}
		if err := e.acquire(ctx); err != nil {
			return nil, err
		}
		defer e.adm.release()
		v, size, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		e.Store(key, v, size)
		return v, nil
	})
	switch {
	case shared:
		e.counters.Inc("coalesced")
	case leaderHit:
		e.counters.Inc("hits")
	case err == nil:
		e.counters.Inc("misses")
	}
	return v, shared || leaderHit, err
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
// the corpus path admits a whole batch as one unit. The returned release
// must be called exactly once; it is non-nil even on error (a no-op).
func (e *Engine) Acquire(ctx context.Context) (release func(), err error) {
	if e == nil {
		return func() {}, nil
	}
	if err := e.acquire(ctx); err != nil {
		return func() {}, err
	}
	return e.adm.release, nil
}

// Lookup is a cache-only read for callers that manage their own computation
// (the corpus path): no single-flight, no admission.
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

// Store is the cache-only write paired with Lookup. The value must not be
// mutated by the caller afterward.
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
