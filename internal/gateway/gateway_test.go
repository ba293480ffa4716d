package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"briq/client"
	"briq/internal/api"
	"briq/internal/core"
	"briq/internal/obs"
	"briq/internal/serve"
	"briq/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// --- ring ---

func ringKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = KeyHash([]byte(fmt.Sprintf("/align\x00page-%d", i)))
	}
	return keys
}

// TestRingDeterminism: the ring layout is a pure function of the replica set —
// rebuilding it, in any configuration order, routes every key identically.
// This is what lets any number of gateway processes (and restarts) front the
// same fleet without disagreeing on shard ownership.
func TestRingDeterminism(t *testing.T) {
	replicas := []string{"http://r0:1", "http://r1:1", "http://r2:1"}
	a, err := NewRing(replicas, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(replicas, 64)
	if err != nil {
		t.Fatal(err)
	}
	permuted, err := NewRing([]string{replicas[2], replicas[0], replicas[1]}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ringKeys(1024) {
		oa, ob := a.Owner(k, nil), b.Owner(k, nil)
		if oa != ob {
			t.Fatalf("same config, different owner for %x: %d vs %d", k, oa, ob)
		}
		// Order-independence: the owner URL matches even though indices differ.
		if got, want := permuted.Replicas()[permuted.Owner(k, nil)], a.Replicas()[oa]; got != want {
			t.Fatalf("permuted config moved key %x: %s vs %s", k, got, want)
		}
	}
}

func TestRingRejectsBadConfig(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty replica list accepted")
	}
	if _, err := NewRing([]string{"http://a", "http://a"}, 0); err == nil {
		t.Error("duplicate replica accepted")
	}
}

// TestRingEjectKeyMovement: ejecting one replica moves exactly that replica's
// keys — every key owned by a surviving replica keeps its owner (so its cache
// shard stays hot), and every orphaned key lands on the dead owner's ring
// successor, the same sibling a retry would have walked to.
func TestRingEjectKeyMovement(t *testing.T) {
	ring, err := NewRing([]string{"http://r0:1", "http://r1:1", "http://r2:1"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	keys := ringKeys(4096)
	const dead = 0
	alive := func(i int) bool { return i != dead }

	perReplica := make([]int, 3)
	moved := 0
	for _, k := range keys {
		before := ring.Owner(k, nil)
		perReplica[before]++
		after := ring.Owner(k, alive)
		if before != dead {
			if after != before {
				t.Fatalf("key %x owned by live replica %d moved to %d", k, before, after)
			}
			continue
		}
		moved++
		walk := ring.Walk(k, 2, nil)
		if len(walk) != 2 || walk[0] != dead {
			t.Fatalf("walk for dead-owned key = %v", walk)
		}
		if after != walk[1] {
			t.Fatalf("orphaned key %x went to %d, want ring successor %d", k, after, walk[1])
		}
	}
	if moved != perReplica[dead] {
		t.Fatalf("moved %d keys, dead replica owned %d", moved, perReplica[dead])
	}
	// Sanity on balance: with 64 vnodes no replica's arc should be degenerate.
	for i, n := range perReplica {
		if n < len(keys)/10 {
			t.Errorf("replica %d owns only %d/%d keys", i, n, len(keys))
		}
	}
}

func TestWalkDistinctAndBounded(t *testing.T) {
	ring, err := NewRing([]string{"http://r0:1", "http://r1:1"}, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ringKeys(64) {
		walk := ring.Walk(k, 5, nil)
		if len(walk) != 2 || walk[0] == walk[1] {
			t.Fatalf("walk = %v, want 2 distinct replicas", walk)
		}
	}
	if got := ring.Walk(ringKeys(1)[0], 1, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("walk with all dead = %v, want empty", got)
	}
}

// --- fixture: fake replicas speaking the briq-server envelope protocol ---

type fakeReplica struct {
	srv         *httptest.Server
	fingerprint string
	healthy     atomic.Bool
	shed        atomic.Bool  // answer every alignment request with 429
	aligns      atomic.Int64 // alignment requests that reached this replica
	searches    atomic.Int64 // search/facts requests that reached this replica
	hits        atomic.Int64 // reported as serving.hits in /metrics

	queryMu   sync.Mutex
	lastQuery string // raw query string of the last search/facts request

	ingestMu sync.Mutex
	ingested []string // page_ids of ingest lines that reached this replica
}

// ingestedPages snapshots the page_ids this replica's /ingest saw, in order.
func (f *fakeReplica) ingestedPages() []string {
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()
	return append([]string(nil), f.ingested...)
}

func newFakeReplica(fingerprint string) *fakeReplica {
	f := &fakeReplica{fingerprint: fingerprint}
	f.healthy.Store(true)
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/healthz":
			if !f.healthy.Load() {
				api.WriteError(w, api.CodeUnavailable, "draining")
				return
			}
			fmt.Fprintln(w, "ok")
		case "/v1/metrics":
			serving := (*serve.Engine)(nil).Counters()
			serving["hits"] = f.hits.Load()
			api.WriteJSON(w, http.StatusOK, map[string]any{
				"uptime_seconds": 1.0,
				"requests":       map[string]int64{"align": f.aligns.Load(), "total": f.aligns.Load()},
				"errors":         map[string]int64{"panics": 0},
				"handlers":       obs.NewRecorder("align").Snapshot(),
				"batch":          map[string]int64{"pages": 0, "documents": 0, "alignments": 0},
				"stages":         obs.NewRecorder(core.StageNames()...).Snapshot(),
				"serving":        serving,
				"store":          (*store.Store)(nil).Counters(),
				"model":          map[string]string{"fingerprint": f.fingerprint},
			})
		case "/v1/search", "/v1/facts":
			f.searches.Add(1)
			f.queryMu.Lock()
			f.lastQuery = r.URL.RawQuery
			f.queryMu.Unlock()
			api.WriteResult(w, api.Paginated{
				Items:      []map[string]any{{"echo": r.URL.RawQuery}},
				NextCursor: "",
			})
		case "/v1/ingest":
			// Minimal briq-server ingest contract: one NDJSON result line
			// per request line, streamed back as lines arrive.
			rc := http.NewResponseController(w)
			_ = rc.EnableFullDuplex()
			w.Header().Set("Content-Type", "application/x-ndjson")
			sc := bufio.NewScanner(r.Body)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if line == "" {
					continue
				}
				var pg struct {
					PageID string `json:"page_id"`
				}
				if err := json.Unmarshal([]byte(line), &pg); err != nil {
					continue
				}
				f.ingestMu.Lock()
				f.ingested = append(f.ingested, pg.PageID)
				f.ingestMu.Unlock()
				fmt.Fprintf(w, "{\"page_id\":%q,\"reused\":0,\"realigned\":1,\"retracted\":0}\n", pg.PageID)
				if fl, ok := w.(http.Flusher); ok {
					fl.Flush()
				}
			}
		case "/v1/align", "/v1/align/batch", "/v1/summarize":
			f.aligns.Add(1)
			if f.shed.Load() {
				api.WriteError(w, api.CodeOverloaded, "shed by admission control")
				return
			}
			body, _ := io.ReadAll(r.Body)
			api.WriteResult(w, map[string]any{"echo": string(body)})
		default:
			http.NotFound(w, r)
		}
	}))
	return f
}

// newTestGateway boots a gateway over the given replicas with a fast probe
// loop, plus an httptest front door.
func newTestGateway(t *testing.T, cfg Config, replicas ...*fakeReplica) (*Gateway, *httptest.Server) {
	t.Helper()
	for _, f := range replicas {
		cfg.Replicas = append(cfg.Replicas, f.srv.URL)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 10 * time.Millisecond
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	front := httptest.NewServer(g.Routes())
	t.Cleanup(front.Close)
	return g, front
}

// bodyOwnedBy searches for an /align body whose ring owner is the given
// replica index and whose retry successor exists — deterministic, so the
// routing tests don't depend on which URLs httptest happened to allocate.
func bodyOwnedBy(t *testing.T, g *Gateway, owner int) []byte {
	t.Helper()
	for i := 0; i < 4096; i++ {
		body := []byte(fmt.Sprintf("page body %d", i))
		key := append(append([]byte("/align"), 0), body...)
		walk := g.ring.Walk(KeyHash(key), 2, nil)
		if len(walk) == 2 && walk[0] == owner {
			return body
		}
	}
	t.Fatal("no body found for owner — ring degenerate?")
	return nil
}

func postAlign(t *testing.T, front *httptest.Server, body []byte) *http.Response {
	t.Helper()
	c, err := client.New(front.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(context.Background(), http.MethodPost, "/v1/align", "text/plain", body)
	if err != nil {
		t.Fatalf("proxy round trip: %v", err)
	}
	return resp
}

// --- routing affinity ---

// TestProxyAffinity: byte-identical requests always land on the same replica
// (that is the whole point — its LRU shard holds the result), and the key
// space spreads across the fleet.
func TestProxyAffinity(t *testing.T) {
	a, b := newFakeReplica("f1"), newFakeReplica("f1")
	defer a.srv.Close()
	defer b.srv.Close()
	g, front := newTestGateway(t, Config{}, a, b)

	repeated := bodyOwnedBy(t, g, 0)
	for i := 0; i < 8; i++ {
		resp := postAlign(t, front, repeated)
		client.Drain(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("align status = %d", resp.StatusCode)
		}
	}
	if got := a.aligns.Load(); got != 8 {
		t.Errorf("owner replica served %d/8 repeats", got)
	}
	if got := b.aligns.Load(); got != 0 {
		t.Errorf("sibling replica served %d repeats, want 0", got)
	}

	// Distinct bodies must reach both replicas.
	for i := 0; i < 64; i++ {
		resp := postAlign(t, front, []byte(fmt.Sprintf("spread body %d", i)))
		client.Drain(resp)
	}
	if a.aligns.Load() == 8 || b.aligns.Load() == 0 {
		t.Errorf("spread did not reach both replicas: a=%d b=%d", a.aligns.Load(), b.aligns.Load())
	}
}

// --- GET read-endpoint proxying ---

// searchQueryOwnedBy finds a /search query whose routing identity hashes onto
// the given replica.
func searchQueryOwnedBy(t *testing.T, g *Gateway, owner int) url.Values {
	t.Helper()
	for i := 0; i < 4096; i++ {
		vals := url.Values{"op": {"above"}, "value": {fmt.Sprintf("%d", i)}}
		key := append(append([]byte("/search"), 0), RoutingIdentity(vals)...)
		walk := g.ring.Walk(KeyHash(key), 2, nil)
		if len(walk) == 2 && walk[0] == owner {
			return vals
		}
	}
	t.Fatal("no query found for owner — ring degenerate?")
	return nil
}

// TestGetProxyCanonicalQueryAffinity: every spelling of the same search query
// — parameters reordered, noncanonical encoding — lands on the same replica,
// and the replica receives the canonical form. That shared identity is what
// keeps a query hitting the replica whose store already answered it.
func TestGetProxyCanonicalQueryAffinity(t *testing.T) {
	a, b := newFakeReplica("f1"), newFakeReplica("f1")
	defer a.srv.Close()
	defer b.srv.Close()
	g, front := newTestGateway(t, Config{}, a, b)

	vals := searchQueryOwnedBy(t, g, 0)
	canonical := vals.Encode()
	spellings := []string{
		canonical,
		"value=" + vals.Get("value") + "&op=above",  // reordered
		"op=above&value=" + vals.Get("value") + "&", // trailing separator
	}
	for _, qs := range spellings {
		resp, err := http.Get(front.URL + "/v1/search?" + qs)
		if err != nil {
			t.Fatal(err)
		}
		client.Drain(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %q: status = %d", qs, resp.StatusCode)
		}
	}
	if got := a.searches.Load(); got != int64(len(spellings)) {
		t.Errorf("owner served %d/%d spellings", got, len(spellings))
	}
	if got := b.searches.Load(); got != 0 {
		t.Errorf("sibling served %d spellings, want 0", got)
	}
	a.queryMu.Lock()
	last := a.lastQuery
	a.queryMu.Unlock()
	if last != canonical {
		t.Errorf("replica saw query %q, want canonical %q", last, canonical)
	}
}

// TestGetProxyCursorAffinity: following a cursor keeps hitting the replica
// that minted it. Pagination parameters are excluded from the routing
// identity — a cursor is an offset into one replica's result list, so page 2
// landing on a different replica would silently duplicate or skip items —
// but they still reach the replica in the forwarded query.
func TestGetProxyCursorAffinity(t *testing.T) {
	a, b := newFakeReplica("f1"), newFakeReplica("f1")
	defer a.srv.Close()
	defer b.srv.Close()
	g, front := newTestGateway(t, Config{}, a, b)

	vals := searchQueryOwnedBy(t, g, 0)
	pages := []string{
		vals.Encode(),                // page 1: no cursor
		vals.Encode() + "&cursor=20", // page 2: cursor minted by page 1
		vals.Encode() + "&cursor=40&limit=7",
	}
	for _, qs := range pages {
		resp, err := http.Get(front.URL + "/v1/search?" + qs)
		if err != nil {
			t.Fatal(err)
		}
		client.Drain(resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %q: status = %d", qs, resp.StatusCode)
		}
	}
	if got := a.searches.Load(); got != int64(len(pages)) {
		t.Errorf("cursor-minting replica served %d/%d pages", got, len(pages))
	}
	if got := b.searches.Load(); got != 0 {
		t.Errorf("sibling replica served %d pages, want 0", got)
	}
	// The pagination parameters must still be forwarded upstream.
	a.queryMu.Lock()
	last := a.lastQuery
	a.queryMu.Unlock()
	wantVals := url.Values{}
	for k, vv := range vals {
		wantVals[k] = vv
	}
	wantVals.Set("cursor", "40")
	wantVals.Set("limit", "7")
	if want := wantVals.Encode(); last != want {
		t.Errorf("replica saw query %q, want %q", last, want)
	}
}

// TestGetProxyRelaysEnvelope: a /facts response comes back through the proxy
// verbatim, and wrong verbs are rejected at the gateway without burning
// replica work.
func TestGetProxyRelaysEnvelope(t *testing.T) {
	a := newFakeReplica("f1")
	defer a.srv.Close()
	_, front := newTestGateway(t, Config{}, a)

	resp, err := http.Get(front.URL + "/v1/facts?entity=rash")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("facts status = %d", resp.StatusCode)
	}
	var env struct {
		Result struct {
			Items      []map[string]any `json:"items"`
			NextCursor string           `json:"next_cursor"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if len(env.Result.Items) != 1 || env.Result.Items[0]["echo"] != "entity=rash" {
		t.Errorf("relayed facts = %+v", env.Result)
	}

	post, err := http.Post(front.URL+"/v1/search", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	client.Drain(post)
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/search status = %d, want 405", post.StatusCode)
	}
	if got := a.searches.Load(); got != 1 {
		t.Errorf("replica saw %d read requests, want only the GET", got)
	}
}

// --- retry budget ---

// TestRetryOnShed: an in-budget 429 from the owner gets exactly one attempt
// on the ring successor, invisible to the client.
func TestRetryOnShed(t *testing.T) {
	a, b := newFakeReplica("f1"), newFakeReplica("f1")
	defer a.srv.Close()
	defer b.srv.Close()
	// Ratio 1: every proxied request banks a full retry token.
	g, front := newTestGateway(t, Config{RetryBudgetRatio: 1}, a, b)

	a.shed.Store(true)
	resp := postAlign(t, front, bodyOwnedBy(t, g, 0))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shed owner with budget: status = %d, want 200 via successor", resp.StatusCode)
	}
	if got := b.aligns.Load(); got != 1 {
		t.Errorf("successor served %d requests, want 1", got)
	}
	snap := g.metrics.gw.Snapshot()
	if snap["retries"] != 1 {
		t.Errorf("retries counter = %d, want 1", snap["retries"])
	}
	if got := g.metrics.perReplica[0].sheds.Load(); got != 1 {
		t.Errorf("owner sheds counter = %d, want 1", got)
	}
}

// TestRetryBudgetExhaustion: out of budget, the owner's 429 is relayed to the
// client verbatim — Retry-After and envelope intact, never laundered into a
// 503 — and the exhaustion is counted.
func TestRetryBudgetExhaustion(t *testing.T) {
	a, b := newFakeReplica("f1"), newFakeReplica("f1")
	defer a.srv.Close()
	defer b.srv.Close()
	// Negative ratio disables retries entirely: the budget never accrues.
	g, front := newTestGateway(t, Config{RetryBudgetRatio: -1}, a, b)

	a.shed.Store(true)
	resp := postAlign(t, front, bodyOwnedBy(t, g, 0))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed without budget: status = %d, want 429 relayed", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("relayed 429 lost its Retry-After header")
	}
	var env api.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.CodeOverloaded {
		t.Errorf("relayed envelope error = %+v, want code %q", env.Error, api.CodeOverloaded)
	}
	if got := b.aligns.Load(); got != 0 {
		t.Errorf("successor served %d requests, want 0 (no budget)", got)
	}
	snap := g.metrics.gw.Snapshot()
	if snap["retry_budget_exhausted"] != 1 {
		t.Errorf("retry_budget_exhausted = %d, want 1", snap["retry_budget_exhausted"])
	}
	if snap["retries"] != 0 {
		t.Errorf("retries = %d, want 0", snap["retries"])
	}
}

// --- health and chaos ---

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestProberEjectReadmit: hysteresis both ways — a replica whose /healthz
// starts failing is ejected after FailThreshold consecutive failures, and
// readmitted only after ReviveThreshold consecutive successes.
func TestProberEjectReadmit(t *testing.T) {
	a, b := newFakeReplica("f1"), newFakeReplica("f1")
	defer a.srv.Close()
	defer b.srv.Close()
	g, _ := newTestGateway(t, Config{}, a, b)

	waitFor(t, "initial probes", func() bool { return g.prober.probes.Load() >= 2 })
	if !g.prober.Alive(0) || !g.prober.Alive(1) {
		t.Fatal("healthy replicas not alive after probes")
	}

	a.healthy.Store(false)
	waitFor(t, "ejection", func() bool { return !g.prober.Alive(0) })
	if g.prober.states[0].ejections.Load() < 1 {
		t.Error("ejection not counted")
	}
	if !g.prober.Alive(1) {
		t.Error("healthy sibling ejected too")
	}

	a.healthy.Store(true)
	waitFor(t, "readmission", func() bool { return g.prober.Alive(0) })
}

// TestBootProbeHonesty: a replica that is down at construction starts
// ejected — the boot probe seeds verdicts before the gateway serves traffic,
// so it never routes into a connection refusal it could have known about.
func TestBootProbeHonesty(t *testing.T) {
	dead := newFakeReplica("f1")
	dead.srv.Close()
	live := newFakeReplica("f1")
	defer live.srv.Close()
	g, front := newTestGateway(t, Config{}, dead, live)

	if g.prober.Alive(0) {
		t.Error("dead replica alive after boot probe")
	}
	if !g.prober.Alive(1) {
		t.Error("live replica not alive after boot probe")
	}
	resp := postAlign(t, front, []byte("any body"))
	defer client.Drain(resp)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d routing around boot-dead replica", resp.StatusCode)
	}
}

// TestGatewayHealthz: the gateway reports healthy exactly while it can serve
// traffic — at least one replica alive.
func TestGatewayHealthz(t *testing.T) {
	a := newFakeReplica("f1")
	defer a.srv.Close()
	_, front := newTestGateway(t, Config{}, a)

	c, err := client.New(front.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz with healthy fleet: %v", err)
	}
	a.healthy.Store(false)
	waitFor(t, "fleet-down healthz", func() bool {
		return c.Healthz(context.Background()) != nil
	})
}

// TestChaosReplicaKill kills a replica's listener mid-burst. With retry
// budget available the in-flight transport error falls through to the ring
// successor, the prober ejects the corpse, and the survivor absorbs the whole
// key space — no client-visible failures at any point.
func TestChaosReplicaKill(t *testing.T) {
	a, b := newFakeReplica("f1"), newFakeReplica("f1")
	defer b.srv.Close()
	g, front := newTestGateway(t, Config{RetryBudgetRatio: 1}, a, b)

	send := func(i int) int {
		resp := postAlign(t, front, []byte(fmt.Sprintf("chaos body %d", i)))
		defer client.Drain(resp)
		return resp.StatusCode
	}

	// Warm phase: both replicas take traffic.
	for i := 0; i < 32; i++ {
		if status := send(i); status != http.StatusOK {
			t.Fatalf("warm request %d: status %d", i, status)
		}
	}
	if a.aligns.Load() == 0 || b.aligns.Load() == 0 {
		t.Fatalf("warm burst skipped a replica: a=%d b=%d", a.aligns.Load(), b.aligns.Load())
	}

	// Kill replica A's listener outright — connections now refuse.
	a.srv.Close()
	for i := 32; i < 96; i++ {
		if status := send(i); status != http.StatusOK {
			t.Fatalf("post-kill request %d: status %d (retry/eject should hide the corpse)", i, status)
		}
	}
	waitFor(t, "corpse ejection", func() bool { return !g.prober.Alive(0) })

	// After ejection the survivor owns everything; the dead replica's counter
	// must stop moving.
	dead := a.aligns.Load()
	for i := 96; i < 128; i++ {
		if status := send(i); status != http.StatusOK {
			t.Fatalf("post-eject request %d: status %d", i, status)
		}
	}
	if got := a.aligns.Load(); got != dead {
		t.Errorf("ejected replica still receiving traffic: %d → %d", dead, got)
	}
	snap := g.metrics.gw.Snapshot()
	if snap["upstream_transport_errors"] == 0 {
		t.Error("transport errors against the corpse not counted")
	}
	if snap["no_healthy_replica"] != 0 || snap["upstream_unavailable"] != 0 {
		t.Errorf("chaos leaked client-visible unavailability: %v", snap)
	}
}

// --- aggregated metrics ---

func gatewayMetricsDoc(t *testing.T, front *httptest.Server) map[string]any {
	t.Helper()
	resp, err := http.Get(front.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// schemaLines renders the shape of a decoded JSON value — field paths and
// types, never values — one line per node, sorted keys. Arrays describe their
// first element.
func schemaLines(prefix string, v any, out *[]string) {
	switch t := v.(type) {
	case map[string]any:
		*out = append(*out, prefix+": object")
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			schemaLines(prefix+"."+k, t[k], out)
		}
	case []any:
		*out = append(*out, prefix+": array")
		if len(t) > 0 {
			schemaLines(prefix+"[]", t[0], out)
		}
	case float64:
		*out = append(*out, prefix+": number")
	case string:
		*out = append(*out, prefix+": string")
	case bool:
		*out = append(*out, prefix+": boolean")
	case nil:
		*out = append(*out, prefix+": null")
	default:
		*out = append(*out, fmt.Sprintf("%s: UNEXPECTED %T", prefix, v))
	}
}

func metricsSchema(t *testing.T, front *httptest.Server) string {
	t.Helper()
	var lines []string
	schemaLines("metrics", gatewayMetricsDoc(t, front), &lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsAggregation: flat counter sections are key-wise sums of the
// replica scrapes, and the model section reports the consensus fingerprint.
func TestMetricsAggregation(t *testing.T) {
	a, b := newFakeReplica("f1"), newFakeReplica("f1")
	defer a.srv.Close()
	defer b.srv.Close()
	_, front := newTestGateway(t, Config{}, a, b)

	a.hits.Store(3)
	b.hits.Store(4)
	m := gatewayMetricsDoc(t, front)
	serving, ok := m["serving"].(map[string]any)
	if !ok {
		t.Fatalf("serving section missing: %v", m["serving"])
	}
	if got := serving["hits"].(float64); got != 7 {
		t.Errorf("aggregated hits = %v, want 7", got)
	}
	model := m["model"].(map[string]any)
	if model["fingerprint"] != "f1" || model["consistent"] != true {
		t.Errorf("model section = %v, want consensus f1", model)
	}
}

// TestMetricsFingerprintDivergence: replicas answering with different model
// fingerprints — shards computing different answers for the same keys — must
// be flagged.
func TestMetricsFingerprintDivergence(t *testing.T) {
	a, b := newFakeReplica("f1"), newFakeReplica("f2")
	defer a.srv.Close()
	defer b.srv.Close()
	_, front := newTestGateway(t, Config{}, a, b)

	model := gatewayMetricsDoc(t, front)["model"].(map[string]any)
	if model["consistent"] != false {
		t.Errorf("divergent fleet reported consistent: %v", model)
	}
}

// TestGatewayMetricsSchemaGolden locks the aggregated /metrics schema. Like
// briq-server's, it must be identical cold, after traffic, and — because
// every merged section is seeded with its zeroed schema — even when every
// replica scrape fails. Regenerate deliberately with:
//
//	go test ./internal/gateway -run TestGatewayMetricsSchemaGolden -update
func TestGatewayMetricsSchemaGolden(t *testing.T) {
	a, b := newFakeReplica("f1"), newFakeReplica("f1")
	g, front := newTestGateway(t, Config{RetryBudgetRatio: 1}, a, b)
	cold := metricsSchema(t, front)

	// Traffic: a success, a shed+retry, and a 405.
	resp := postAlign(t, front, bodyOwnedBy(t, g, 0))
	client.Drain(resp)
	a.shed.Store(true)
	resp = postAlign(t, front, bodyOwnedBy(t, g, 0))
	client.Drain(resp)
	a.shed.Store(false)
	if resp, err := http.Get(front.URL + "/v1/align"); err == nil {
		client.Drain(resp)
	}
	warm := metricsSchema(t, front)
	if cold != warm {
		t.Errorf("schema changed between cold gateway and after traffic:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	// Kill both replicas: every scrape fails, the schema must hold.
	a.srv.Close()
	b.srv.Close()
	dark := metricsSchema(t, front)
	if warm != dark {
		t.Errorf("schema changed when replica scrapes fail:\nwarm:\n%s\ndark:\n%s", warm, dark)
	}

	golden := filepath.Join("testdata", "metrics_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(warm), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if warm != string(want) {
		t.Errorf("aggregated /metrics schema drifted from golden.\nIf intentional, update dashboards and regenerate with -update.\ngot:\n%s\nwant:\n%s", warm, want)
	}
}

// TestRouteSurfaceMatchesServer: the gateway mounts the shared route table —
// versioned paths live, bare paths 404 — so it is a drop-in front for
// anything that spoke to briq-server directly.
func TestRouteSurfaceMatchesServer(t *testing.T) {
	a := newFakeReplica("f1")
	defer a.srv.Close()
	_, front := newTestGateway(t, Config{}, a)

	for _, r := range api.Surface() {
		for _, tc := range []struct {
			path    string
			mounted bool
		}{
			{api.Versioned(r.Path), true},
			{r.Path, false},
		} {
			resp, err := http.Get(front.URL + tc.path)
			if err != nil {
				t.Fatalf("GET %s: %v", tc.path, err)
			}
			client.Drain(resp)
			if got := resp.StatusCode != http.StatusNotFound; got != tc.mounted {
				t.Errorf("%s: status %d, want mounted = %v", tc.path, resp.StatusCode, tc.mounted)
			}
		}
	}
}
