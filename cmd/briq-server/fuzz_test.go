package main

// Fuzz harness for the list-endpoint parameter decoding behind GET
// /v1/search and /v1/facts: a raw query string goes through url.ParseQuery
// (ignoring its error, as http.Request.URL.Query does), then
// parseSearchQuery and parsePage. The contract under arbitrary input: never
// panic, fail only with an error wrapping quantsearch.ErrBadQuery (the
// handlers map it to 422 bad_query), and on success return finite values
// with Value ≤ Value2 for a between query and a non-negative offset and
// limit. Seeds are the query strings of the validation table.

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"briq/internal/api"
	"briq/internal/ingest"
	"briq/internal/quantsearch"
)

func FuzzSearchParams(f *testing.F) {
	for _, tc := range listValidationCases {
		_, raw, _ := strings.Cut(tc.path, "?")
		f.Add(raw)
	}
	for _, seed := range []string{
		"q=side+effects+above+30",
		"op=between&value=10&value2=5&unit=usd&keywords=total,revenue",
		"value=5&cursor=20&limit=100",
		"value=1e400",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		vals, _ := url.ParseQuery(raw)
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
