// Package gateway shards briq traffic across a pool of briq-server replicas
// booted from one model bundle.
//
// The router hashes each request's content identity — endpoint plus raw body
// for the POST alignment endpoints, endpoint plus the canonicalized
// query-identity parameters (pagination excluded, see RoutingIdentity) for
// the GET read endpoints (search, facts) — onto a consistent-hash ring
// (Ring), so byte-identical requests always land on the same replica and each
// replica's LRU shard (and aligned-corpus store) stays hot on its slice of
// the key space. The fleet's aggregate cache capacity therefore scales with
// the replica count, which is where the gateway's throughput-per-replica
// win comes from on cache-bound workloads.
//
// The same sharding makes fleet reads per-shard, not corpus-wide: POST
// traffic shards documents across replicas by content, each replica's store
// indexes only the documents it aligned, and a GET /v1/search or /v1/facts
// is answered by exactly one replica — there is no scatter-gather. A query
// therefore sees one replica's slice of the aligned corpus (consistently:
// the same query always sees the same slice, and every page of it). For
// corpus-wide search, run a single briq-server, or point alignment traffic
// for one corpus at one replica. docs/OPERATIONS.md spells out the
// operational consequences.
//
// Liveness is layered over the immutable ring by a health prober
// (periodic /healthz with eject/readmit hysteresis, plus in-band transport
// failures); a dead replica's arc drains to its ring successors and comes
// back on readmission without moving anyone else's keys. Overload answers
// (429/504) and transport failures are retried once toward the ring
// successor under a token retry budget — beyond the budget the replica's
// answer is surfaced to the client verbatim, Retry-After and all.
//
// GET /metrics answers the same top-level schema as a single briq-server —
// serving counters summed and latency histograms merged across replica
// scrapes — plus a "gateway" section; a load harness pointed at the gateway
// cross-checks its accounting exactly as it would against one server.
package gateway

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"runtime/debug"
	"sync"
	"time"
	"unicode/utf8"

	"briq/client"
	"briq/internal/api"
)

// maxBody caps proxied request bodies, mirroring briq-server's cap so the
// gateway sheds oversized requests without burning replica work.
const maxBody = 8 << 20

// Config assembles a Gateway.
type Config struct {
	// Replicas are the briq-server base URLs to shard across. Order does not
	// affect routing (the ring hashes URLs), but keep it stable anyway: the
	// metrics section reports replicas in this order.
	Replicas []string
	// VNodes is the per-replica virtual-node count; 0 means DefaultVNodes.
	VNodes int
	// ProbeInterval is the health-probe period; 0 means
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// FailThreshold / ReviveThreshold set the eject/readmit hysteresis;
	// 0 means the defaults.
	FailThreshold   int
	ReviveThreshold int
	// RetryBudgetRatio bounds retries to this fraction of proxied requests
	// (a token bucket refilled per request). 0 means DefaultRetryBudgetRatio;
	// negative disables retries.
	RetryBudgetRatio float64
	// UpstreamTimeout bounds one proxied upstream round trip; 0 means
	// DefaultUpstreamTimeout.
	UpstreamTimeout time.Duration
}

// DefaultRetryBudgetRatio allows one retry per ten proxied requests —
// enough to absorb a replica blip, too few to double the fleet's load when
// everything is shedding.
const DefaultRetryBudgetRatio = 0.1

// DefaultUpstreamTimeout bounds one upstream round trip.
const DefaultUpstreamTimeout = 90 * time.Second

// retryBudgetCap bounds how many retry tokens can bank up during quiet
// periods.
const retryBudgetCap = 64

// Gateway routes requests across the replica fleet. Construct with New,
// mount Routes, and Stop when done.
type Gateway struct {
	ring    *Ring
	clients []*client.Client
	prober  *prober
	metrics *metrics
	start   time.Time

	budgetMu sync.Mutex
	budget   float64
	ratio    float64
}

// New builds the gateway and starts its health prober.
func New(cfg Config) (*Gateway, error) {
	ring, err := NewRing(cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	timeout := cfg.UpstreamTimeout
	if timeout <= 0 {
		timeout = DefaultUpstreamTimeout
	}
	// One transport for the whole fleet: the gateway multiplexes many client
	// connections onto pooled upstream connections.
	transport := &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
		IdleConnTimeout:     90 * time.Second,
	}
	clients := make([]*client.Client, len(ring.Replicas()))
	for i, base := range ring.Replicas() {
		c, err := client.New(base, client.WithHTTPClient(&http.Client{
			Timeout:   timeout,
			Transport: transport,
		}))
		if err != nil {
			return nil, fmt.Errorf("gateway: replica %d: %w", i, err)
		}
		clients[i] = c
	}
	ratio := cfg.RetryBudgetRatio
	switch {
	case ratio == 0:
		ratio = DefaultRetryBudgetRatio
	case ratio < 0:
		ratio = 0
	}
	g := &Gateway{
		ring:    ring,
		clients: clients,
		prober:  newProber(clients, cfg.ProbeInterval, cfg.FailThreshold, cfg.ReviveThreshold),
		metrics: newMetrics(len(clients)),
		start:   time.Now(),
		ratio:   ratio,
	}
	g.prober.bootProbe()
	go g.prober.run()
	return g, nil
}

// Stop halts the health prober. In-flight proxied requests finish on their
// own.
func (g *Gateway) Stop() { g.prober.Stop() }

// Routes builds the gateway's handler tree from the same shared route table
// briq-server mounts, under /v1 only, so the two binaries expose an
// identical surface.
func (g *Gateway) Routes() http.Handler {
	mux := http.NewServeMux()
	for _, r := range api.Surface() {
		var h http.HandlerFunc
		switch r.Name {
		case "metrics":
			h = g.handleMetrics
		case "healthz":
			h = g.handleHealthz
		case "search", "facts":
			h = g.proxyGetHandler(r)
		case "ingest":
			h = g.proxyIngestHandler(r)
		default: // align, align_batch, summarize: the proxy path
			h = g.proxyHandler(r)
		}
		mux.Handle(api.Versioned(r.Path), g.instrument(r.Name, h))
	}
	return mux
}

// instrument wraps a handler with request counting, latency observation and
// panic recovery, mirroring briq-server's middleware.
func (g *Gateway) instrument(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		g.metrics.requests.Inc(name)
		g.metrics.requests.Inc("total")
		defer func() {
			if v := recover(); v != nil {
				g.metrics.errors.Inc("panics")
				api.WriteError(w, api.CodeInternal, "internal gateway error")
				log.Printf("gateway: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			}
			g.metrics.handlers.Observe(name, time.Since(start))
		}()
		h(w, r)
	})
}

// allowRetry consumes one retry token, refilled at ratio tokens per proxied
// request — deterministic, load-proportional, and capped.
func (g *Gateway) allowRetry() bool {
	g.budgetMu.Lock()
	defer g.budgetMu.Unlock()
	if g.budget < 1 {
		return false
	}
	g.budget--
	return true
}

// accrueRetryBudget banks this request's share of the retry budget.
func (g *Gateway) accrueRetryBudget() {
	g.budgetMu.Lock()
	defer g.budgetMu.Unlock()
	g.budget += g.ratio
	if g.budget > retryBudgetCap {
		g.budget = retryBudgetCap
	}
}

// proxyHandler builds the sharded proxy path for one alignment endpoint.
func (g *Gateway) proxyHandler(route api.Route) http.HandlerFunc {
	versioned := api.Versioned(route.Path)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			api.WriteError(w, api.CodeMethodNotAllowed, "POST only")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			api.WriteError(w, api.CodeBadRequest, fmt.Sprintf("read body: %v", err))
			return
		}
		if len(body) == 0 {
			api.WriteError(w, api.CodeBadRequest, "empty body")
			return
		}
		if !utf8.Valid(body) {
			api.WriteError(w, api.CodeBadRequest, "body is not valid UTF-8 text")
			return
		}
		// The routing identity is endpoint + body — the same bytes the
		// replica's serving layer hashes into its cache key — so identical
		// requests always land on the replica whose shard holds the result.
		key := make([]byte, 0, len(route.Path)+1+len(body))
		key = append(key, route.Path...)
		key = append(key, 0)
		key = append(key, body...)
		g.forward(w, r, http.MethodPost, versioned, r.Header.Get("Content-Type"), body, KeyHash(key))
	}
}

// proxyGetHandler builds the sharded proxy path for one read endpoint
// (search, facts). The routing identity is the route plus the canonicalized
// query-identity parameters — url.Values.Encode sorts parameters, so every
// spelling of the same query hashes identically and lands on the replica
// whose store answered it before. Pagination parameters (cursor, limit) are
// excluded from the identity: a cursor is an offset into one replica's
// result list, so every page of one query must land on the replica that
// minted it. The full canonical form — pagination included — is what gets
// forwarded upstream.
func (g *Gateway) proxyGetHandler(route api.Route) http.HandlerFunc {
	versioned := api.Versioned(route.Path)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			api.WriteError(w, api.CodeMethodNotAllowed, "GET only")
			return
		}
		vals := r.URL.Query()
		canonical := vals.Encode()
		identity := RoutingIdentity(vals)
		key := make([]byte, 0, len(route.Path)+1+len(identity))
		key = append(key, route.Path...)
		key = append(key, 0)
		key = append(key, identity...)
		upstream := versioned
		if canonical != "" {
			upstream += "?" + canonical
		}
		g.forward(w, r, http.MethodGet, upstream, "", nil, KeyHash(key))
	}
}

// RoutingIdentity canonicalizes a read endpoint's query parameters into the
// string the gateway hashes for replica routing: parameters sorted by
// url.Values.Encode, with the pagination parameters (cursor, limit) removed.
// Cursors are per-replica offsets, so routing on them would send page 2 of a
// query to a different replica than the one whose result list minted the
// cursor on page 1.
func RoutingIdentity(vals url.Values) string {
	if vals.Has("cursor") || vals.Has("limit") {
		clean := url.Values{}
		for k, vv := range vals {
			if k == "cursor" || k == "limit" {
				continue
			}
			clean[k] = vv
		}
		vals = clean
	}
	return vals.Encode()
}

// forward walks the hash's candidate replicas — the owner plus one ring
// successor — relaying the first upstream answer and spending the retry
// budget on transport failures and overload sheds along the way.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, method, upstreamPath, contentType string, body []byte, hash uint64) {
	g.accrueRetryBudget()
	g.metrics.gw.Inc("proxied")

	candidates := g.ring.Walk(hash, 2, g.prober.Alive)
	if len(candidates) == 0 {
		g.metrics.gw.Inc("no_healthy_replica")
		api.WriteError(w, api.CodeUnavailable, "no healthy replica")
		return
	}

	for i, idx := range candidates {
		resp, err := g.clients[idx].Do(r.Context(), method, upstreamPath, contentType, body)
		if err != nil {
			// No response arrived: count it against the replica's
			// health and, budget permitting, fall through to the ring
			// successor.
			g.metrics.gw.Inc("upstream_transport_errors")
			g.metrics.perReplica[idx].errors.Add(1)
			g.prober.ReportFailure(idx)
			if r.Context().Err() != nil {
				api.WriteError(w, api.CodeDeadline, "request cancelled while proxying")
				return
			}
			if i+1 < len(candidates) {
				if g.allowRetry() {
					g.metrics.gw.Inc("retries")
					continue
				}
				g.metrics.gw.Inc("retry_budget_exhausted")
			}
			break // → 503 below: there is no upstream answer to surface
		}
		g.metrics.perReplica[idx].forwarded.Add(1)
		if retryableStatus(resp.StatusCode) && i+1 < len(candidates) {
			// Overload shed by the owner: one in-budget attempt on the
			// ring successor, whose shard may have capacity. Out of
			// budget, the shed is surfaced verbatim below — never
			// laundered into a 503.
			if g.allowRetry() {
				client.Drain(resp)
				g.metrics.perReplica[idx].sheds.Add(1)
				g.metrics.gw.Inc("retries")
				continue
			}
			g.metrics.gw.Inc("retry_budget_exhausted")
		}
		relay(w, resp)
		return
	}
	// Every reachable candidate failed at the transport: nothing
	// arrived that could be surfaced, so answer unavailable and let the
	// client's backoff loop own what happens next.
	g.metrics.gw.Inc("upstream_unavailable")
	api.WriteError(w, api.CodeUnavailable, "no replica could serve the request")
}

// retryableStatus reports the overload answers worth one sibling attempt:
// admission-control sheds and deadline exhaustion. Everything else — 422s,
// 400s, 200s — is the request's real answer on any replica.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusGatewayTimeout
}

// relay copies an upstream response to the client verbatim — status, the
// envelope body, and the headers clients key on (Content-Type, Retry-After).
// The gateway must not re-encode bodies: byte-identical passthrough is what
// keeps cached and fresh, direct and proxied responses indistinguishable.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// Headers are committed; nothing to do but stop copying.
		_ = err
	}
}

// handleHealthz answers 200 while at least one replica is healthy — the
// gateway is "up" exactly when it can serve traffic.
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	for i := range g.clients {
		if g.prober.Alive(i) {
			fmt.Fprintln(w, "ok")
			return
		}
	}
	api.WriteError(w, api.CodeUnavailable, "no healthy replica")
}
