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
//	Engine    what the facade talks to: the cache's Lookup and Store, and
//	          Do, which composes single-flight and admission around one
//	          computation, with hit/miss/store/coalesced/shed counters for
//	          the /metrics endpoint.
//
// Do never reads or fills the cache. The facade looks a page's entry and its
// documents' entries up before it, and the computation that runs inside it
// stores what it made: the cache first, then the pipeline's sink, which
// persists it. Nothing the cache does can write to disk.
//
// Every type tolerates its disabled form: a nil *Engine computes directly, a
// zero CacheBytes disables caching, a zero MaxInFlight disables admission.
package serve
