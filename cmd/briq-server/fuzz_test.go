package main

// Fuzz harness for the list-endpoint parameter decoding behind GET
// /v1/search and /v1/facts: a raw query string goes through url.ParseQuery
// (ignoring its error, as http.Request.URL.Query does), then
// parseSearchQuery and parsePage. The contract under arbitrary input: never
// panic, fail only with an error wrapping quantsearch.ErrBadQuery (the
// handlers map it to 422 bad_query), and on success return finite values
// with Value ≤ Value2 for a between query and a non-negative offset and
// limit. Both routes then serve the same query string from a small tableS
// store and must answer 422 bad_query or exactly what api.WriteResult
// writes for api.Page of the whole list. Seeds are the query strings of the
// validation table and a few that page through the store.

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"briq"
	"briq/internal/api"
	"briq/internal/ingest"
	"briq/internal/quantsearch"
)

func FuzzSearchParams(f *testing.F) {
	for _, tc := range listValidationCases {
		_, raw, _ := strings.Cut(tc.path, "?")
		f.Add(raw)
	}
	fx := newListFixture(f, 4, 0)
	for _, seed := range []string{
		"q=side+effects+above+30",
		"op=between&value=10&value2=5&unit=usd&keywords=total,revenue",
		"value=5&cursor=20&limit=100",
		"value=1e400",
		"q=revenue+above+0&cursor=3&limit=7",
		"op=below&value=1e9&cursor=9223372036854775807",
		"entity=" + url.QueryEscape(fx.entities[0]) + "&limit=1&cursor=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		vals, _ := url.ParseQuery(raw)
		for _, route := range []string{"/v1/search", "/v1/facts"} {
			sameList(t, route+"?"+raw, getList(fx.srv, route, raw), wantList(fx.srv, route, vals))
		}
		q, err := parseSearchQuery(vals)
		if err != nil {
			if !errors.Is(err, quantsearch.ErrBadQuery) {
				t.Fatalf("parseSearchQuery(%q): error %v does not wrap ErrBadQuery", raw, err)
			}
		} else {
			for _, v := range []float64{q.Value, q.Value2} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("parseSearchQuery(%q): non-finite value in %+v", raw, q)
				}
			}
			if q.Op == quantsearch.Between && q.Value > q.Value2 {
				t.Fatalf("parseSearchQuery(%q): between bounds out of order: %+v", raw, q)
			}
		}
		offset, limit, err := parsePage(vals)
		if err != nil {
			if !errors.Is(err, quantsearch.ErrBadQuery) {
				t.Fatalf("parsePage(%q): error %v does not wrap ErrBadQuery", raw, err)
			}
			return
		}
		if offset < 0 || limit < 0 {
			t.Fatalf("parsePage(%q) = offset %d, limit %d; want both ≥ 0", raw, offset, limit)
		}
	})
}

// FuzzIngestLines sends arbitrary bodies to POST /v1/ingest on an untrained
// server. The contract under any body: status 200; one ingest.Result line
// that decodes for every non-blank request line, plus at most one trailing
// read-stream error line; every error line carries a code from
// api.StatusByCode; and no handler panic, including one after the stream
// has started, where the status is already out. Seeds are the lines of
// TestIngestValidationLines, alone and together.
func FuzzIngestLines(f *testing.F) {
	lines := ingestValidationLines()
	for _, line := range lines {
		f.Add(line)
	}
	f.Add(strings.Join(lines, "\n"))
	f.Add(strings.Join(lines, "\r\n") + "\n")
	f.Fuzz(func(t *testing.T, body string) {
		srv := newTestServer()
		rec := do(t, srv, http.MethodPost, "/v1/ingest", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, want 200: %s", rec.Code, rec.Body.String())
		}
		want := 0
		for _, line := range strings.Split(body, "\n") {
			if strings.TrimSpace(line) != "" {
				want++
			}
		}
		var results []ingest.Result
		for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
			if line == "" {
				continue
			}
			var r ingest.Result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("undecodable response line %q: %v", line, err)
			}
			if _, ok := api.StatusByCode[r.Code]; r.Error != "" && !ok {
				t.Fatalf("error line %+v: code %q is not in api.StatusByCode", r, r.Code)
			}
			results = append(results, r)
		}
		if n := len(results); n > 0 && strings.HasPrefix(results[n-1].Error, "read stream: ") {
			results = results[:n-1]
		}
		if len(results) != want {
			t.Fatalf("%d result lines for %d non-blank request lines: %s", len(results), want, rec.Body.String())
		}
		if got := srv.metrics.errors.Get("panics"); got != 0 {
			t.Fatalf("errors.panics = %d, want 0", got)
		}
	})
}

// FuzzAlignBatch sends arbitrary bodies to POST /v1/align/batch on a cached
// untrained server, twice. The contract under any body: no handler panic;
// status 200, or the status api.StatusByCode gives the envelope's error
// code; and the second POST, which answers pages whose first POST recorded
// an entry from the cache, answers the same status and bytes as the first.
// Bodies over 64 KiB are skipped: the cost of one large page is ROADMAP
// item 7's. Seeds are the body of TestHandleAlignBatch and the batch rows of
// TestErrorPaths that fit.
func FuzzAlignBatch(f *testing.F) {
	const maxFuzzBody = 64 << 10
	f.Add(handleAlignBatchBody())
	for _, tc := range errorPaths() {
		if tc.path == "/v1/align/batch" && tc.method == http.MethodPost && len(tc.body) <= maxFuzzBody {
			f.Add(tc.body)
		}
	}
	srv := newServer(briq.New(briq.WithWorkers(1), briq.WithCache(8<<20)), serverOptions{})
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > maxFuzzBody {
			t.Skip()
		}
		first := do(t, srv, http.MethodPost, "/v1/align/batch", body)
		if first.Code != http.StatusOK {
			var env api.Envelope
			if err := json.Unmarshal(first.Body.Bytes(), &env); err != nil || env.Error == nil {
				t.Fatalf("status %d without an error envelope: %.300s", first.Code, first.Body.String())
			}
			if status, ok := api.StatusByCode[env.Error.Code]; !ok || status != first.Code {
				t.Fatalf("status %d with error code %q, want 200 or the code's status in api.StatusByCode", first.Code, env.Error.Code)
			}
		}
		second := do(t, srv, http.MethodPost, "/v1/align/batch", body)
		if second.Code != first.Code || !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("second POST answered %d %.300s\nfirst answered %d %.300s",
				second.Code, second.Body.String(), first.Code, first.Body.String())
		}
		if got := srv.metrics.errors.Get("panics"); got != 0 {
			t.Fatalf("errors.panics = %d, want 0", got)
		}
	})
}

// FuzzAlignPage sends arbitrary bodies to POST /v1/align and POST
// /v1/summarize on a cached untrained server, twice each: the page path
// behind both routes, fed arbitrary page HTML. The contract is
// FuzzAlignBatch's: no handler panic; status 200, or the status
// api.StatusByCode gives the envelope's error code; and the second POST,
// which finds the page and document entries the first recorded, answers the
// same status and bytes. Bodies over 64 KiB are skipped: the cost of one
// large page is ROADMAP item 7's, and so is a deadline bound. Seeds are
// testPage and the /v1/align and /v1/summarize rows of TestErrorPaths that
// fit.
func FuzzAlignPage(f *testing.F) {
	const maxFuzzBody = 64 << 10
	f.Add(testPage)
	for _, tc := range errorPaths() {
		if (tc.path == "/v1/align" || tc.path == "/v1/summarize") && tc.method == http.MethodPost && len(tc.body) <= maxFuzzBody {
			f.Add(tc.body)
		}
	}
	srv := newServer(briq.New(briq.WithWorkers(1), briq.WithCache(8<<20)), serverOptions{})
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > maxFuzzBody {
			t.Skip()
		}
		for _, path := range []string{"/v1/align", "/v1/summarize"} {
			first := do(t, srv, http.MethodPost, path, body)
			if first.Code != http.StatusOK {
				var env api.Envelope
				if err := json.Unmarshal(first.Body.Bytes(), &env); err != nil || env.Error == nil {
					t.Fatalf("%s: status %d without an error envelope: %.300s", path, first.Code, first.Body.String())
				}
				if status, ok := api.StatusByCode[env.Error.Code]; !ok || status != first.Code {
					t.Fatalf("%s: status %d with error code %q, want 200 or the code's status in api.StatusByCode", path, first.Code, env.Error.Code)
				}
			}
			second := do(t, srv, http.MethodPost, path, body)
			if second.Code != first.Code || !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("%s: second POST answered %d %.300s\nfirst answered %d %.300s",
					path, second.Code, second.Body.String(), first.Code, first.Body.String())
			}
		}
		if got := srv.metrics.errors.Get("panics"); got != 0 {
			t.Fatalf("errors.panics = %d, want 0", got)
		}
	})
}
