// Package serve is the traffic layer between the HTTP handlers and the
// alignment pipeline: the pieces that make repeated, concurrent and excessive
// load cheap, deduplicated and bounded instead of linearly expensive.
//
// It is deliberately ignorant of the pipeline itself — values are opaque and
// keys are content hashes — so it sits below briq's facade without importing
// any pipeline package:
//
//	Cache     a sharded, content-addressed LRU bounded by total bytes.
//	          Keys are SHA-256 over (model fingerprint, page ID, content),
//	          so byte-identical requests hit and any model or input change
//	          misses. Per-shard mutexes keep lookups contention-free.
//	flight    a single-flight group: N concurrent requests for the same key
//	          trigger exactly one computation; the rest wait and share it.
//	admission a bounded in-flight semaphore with a queue-depth watermark.
//	          Excess load is shed immediately with ErrOverloaded; requests
//	          whose context dies while queued fail with ErrDeadlineBudget.
//	          Both are typed and errors.Is-testable, never an unbounded queue.
//	Engine    the composition the facade talks to: cache → single-flight →
//	          admission → compute → store, with hit/miss/eviction/shed
//	          counters for the /metrics endpoint.
//
// The Engine's store step fills the cache only; it never calls out. Whoever
// computes a result persists it explicitly (the facade hands fresh results
// to the pipeline's sink from inside the compute closure), so nothing the
// cache does can write to disk.
//
// Every type tolerates its disabled form: a nil *Engine computes directly, a
// zero CacheBytes disables caching, a zero MaxInFlight disables admission.
package serve
