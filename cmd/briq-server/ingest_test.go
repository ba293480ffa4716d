package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"briq"
	"briq/client"
	"briq/internal/corpus"
	"briq/internal/ingest"
)

func decodeIngestLines(t *testing.T, body string) []ingest.Result {
	t.Helper()
	var out []ingest.Result
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" {
			continue
		}
		var r ingest.Result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("undecodable response line %q: %v", line, err)
		}
		out = append(out, r)
	}
	return out
}

// ingestValidationLines are the request lines of TestIngestValidationLines
// and the seeds of FuzzIngestLines: three bad lines, a blank one and a valid
// page.
func ingestValidationLines() []string {
	okLine, _ := json.Marshal(ingestLine{PageID: "ok", HTML: testPage})
	return []string{
		`this is not json`,
		`{"html":"<p>anonymous</p>"}`,
		`{"page_id":"empty","html":""}`,
		``, // blank lines are skipped, not errors
		string(okLine),
	}
}

// TestIngestValidationLines drives the per-line failure modes: each bad line
// answers an error line in-stream without aborting the pages after it.
func TestIngestValidationLines(t *testing.T) {
	srv := newTestServer()
	body := strings.Join(ingestValidationLines(), "\n")

	rec := do(t, srv, http.MethodPost, "/v1/ingest", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	results := decodeIngestLines(t, rec.Body.String())
	if len(results) != 4 {
		t.Fatalf("got %d response lines, want 4: %+v", len(results), results)
	}
	for i, want := range []struct{ pageID, code string }{
		{"line1", codeBadRequest},
		{"line2", codeBadRequest},
		{"empty", codeBadRequest},
	} {
		if results[i].PageID != want.pageID || results[i].Code != want.code || results[i].Error == "" {
			t.Errorf("line %d = %+v, want page %q code %q", i+1, results[i], want.pageID, want.code)
		}
	}
	ok := results[3]
	if ok.Error != "" || ok.PageID != "ok" || ok.Realigned == 0 || len(ok.Documents) == 0 {
		t.Fatalf("valid page after bad lines = %+v", ok)
	}
	if got := srv.metrics.ingest.Get("pages"); got != 4 {
		t.Errorf("ingest pages counter = %d, want 4", got)
	}
	if got := srv.metrics.ingest.Get("page_errors"); got != 3 {
		t.Errorf("ingest page_errors counter = %d, want 3", got)
	}
	if got := srv.metrics.ingest.Get("realigned"); got != int64(ok.Realigned) {
		t.Errorf("ingest realigned counter = %d, want %d", got, ok.Realigned)
	}
}

func TestIngestWrongMethod(t *testing.T) {
	srv := newTestServer()
	rec := do(t, srv, http.MethodGet, "/v1/ingest", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rec.Code)
	}
	var env envelope
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != codeMethodNotAllowed {
		t.Errorf("error = %+v", env.Error)
	}
}

// ingestPages streams pages through the typed client and fails the test on
// any transport or per-page error.
func ingestPages(t *testing.T, c *client.Client, pages []*corpus.Page) []client.IngestResult {
	t.Helper()
	i := 0
	it := c.Ingest(context.Background(), func() (*client.IngestPage, error) {
		if i >= len(pages) {
			return nil, nil
		}
		pg := pages[i]
		i++
		return &client.IngestPage{PageID: pg.ID, HTML: pg.HTML()}, nil
	})
	var out []client.IngestResult
	for it.Next() {
		r := it.Result()
		if r.Error != "" {
			t.Fatalf("page %s: %s (%s)", r.PageID, r.Error, r.Code)
		}
		out = append(out, r)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestIngestStreamEquivalence is the tentpole acceptance gate over the wire:
// stream a corpus through POST /v1/ingest, mutate one paragraph per page,
// stream it again — then /v1/search and /v1/facts must answer byte-identically
// to a server that aligned only the final corpus from scratch.
func TestIngestStreamEquivalence(t *testing.T) {
	cfg := corpus.TableSConfig(61)
	cfg.Pages = 4
	pages := corpus.Generate(cfg).Pages

	boot := func() (*server, *httptest.Server, *client.Client) {
		srv := newServer(briq.New(briq.WithWorkers(2)), serverOptions{})
		ts := httptest.NewServer(srv.routes())
		t.Cleanup(ts.Close)
		c, err := client.New(ts.URL, client.WithHTTPClient(&http.Client{}))
		if err != nil {
			t.Fatal(err)
		}
		return srv, ts, c
	}

	srvA, tsA, cA := boot()
	v1 := ingestPages(t, cA, pages)
	if len(v1) != len(pages) {
		t.Fatalf("v1 ingest answered %d pages, want %d", len(v1), len(pages))
	}
	for _, r := range v1 {
		if r.Reused != 0 || r.Realigned == 0 {
			t.Fatalf("cold page %s over the wire: %+v", r.PageID, r)
		}
	}

	for _, pg := range pages {
		pg.Paras[0] += " Meanwhile, 8 further observations were recorded."
	}
	v2 := ingestPages(t, cA, pages)
	var reused, realigned int
	for _, r := range v2 {
		reused += r.Reused
		realigned += r.Realigned
	}
	if reused == 0 || realigned == 0 {
		t.Fatalf("mutated re-ingest reused %d / realigned %d, want both > 0", reused, realigned)
	}

	srvB, tsB, cB := boot()
	ingestPages(t, cB, pages)

	get := func(ts *httptest.Server, path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	for _, q := range []string{
		"/v1/search?op=above&value=0&limit=500",
		"/v1/search?op=below&value=1000&limit=500",
		"/v1/search?op=above&value=0&keywords=total&limit=500",
	} {
		if a, b := get(tsA, q), get(tsB, q); a != b {
			t.Errorf("GET %s diverges between incremental and from-scratch servers", q)
		}
	}
	entsA, entsB := srvA.store.Entities(), srvB.store.Entities()
	if !reflect.DeepEqual(entsA, entsB) {
		t.Fatalf("entity sets diverge: %d vs %d", len(entsA), len(entsB))
	}
	for _, e := range entsA {
		q := "/v1/facts?entity=" + url.QueryEscape(e) + "&limit=500"
		if a, b := get(tsA, q), get(tsB, q); a != b {
			t.Errorf("facts for %q diverge between incremental and from-scratch servers", e)
		}
	}
}

// TestIngestRecordsStageHistograms: documents realigned through POST
// /v1/ingest run on the ingestor's own worker pool, and /metrics must still
// count them under stages. One ingest that realigns N documents grows
// stages.classify.count by exactly N, and a repeated scrape without traffic
// reads the same count — the cumulative pool recorders are never merged
// into the server's recorder twice.
func TestIngestRecordsStageHistograms(t *testing.T) {
	srv := newTestServer()
	classifyCount := func() float64 {
		t.Helper()
		rec := do(t, srv, http.MethodGet, "/v1/metrics", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/metrics: %d: %s", rec.Code, rec.Body.String())
		}
		var snap struct {
			Stages map[string]struct {
				Count float64 `json:"count"`
			} `json:"stages"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		return snap.Stages["classify"].Count
	}

	before := classifyCount()
	cfg := corpus.TableSConfig(29)
	cfg.Pages = 3
	rec := do(t, srv, http.MethodPost, "/v1/ingest", ndjsonBody(corpus.Generate(cfg).Pages))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body.String())
	}
	realigned := 0
	for _, r := range decodeIngestLines(t, rec.Body.String()) {
		if r.Error != "" {
			t.Fatalf("page %s: %s", r.PageID, r.Error)
		}
		realigned += r.Realigned
	}
	if realigned == 0 {
		t.Fatal("ingest realigned no documents; the stage check is vacuous")
	}

	after := classifyCount()
	if got := after - before; got != float64(realigned) {
		t.Fatalf("stages.classify.count grew by %v after ingest, want %d (documents realigned)", got, realigned)
	}
	if again := classifyCount(); again != after {
		t.Fatalf("stages.classify.count moved from %v to %v between scrapes with no traffic", after, again)
	}
}
