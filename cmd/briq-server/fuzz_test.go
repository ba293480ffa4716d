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
	"errors"
	"math"
	"net/url"
	"strings"
	"testing"

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
