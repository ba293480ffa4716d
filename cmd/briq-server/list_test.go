package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"briq"
	"briq/internal/api"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/facts"
	"briq/internal/htmlx"
	"briq/internal/quantsearch"
)

// listFixture is an untrained server whose store holds tableS seed-1 pages,
// ingested as bench/'s search_mixed template is, with bench-shaped queries
// over them.
type listFixture struct {
	srv      *server
	queries  []url.Values // /v1/search parameters, without paging
	entities []string     // every entity with a fact, sorted
}

func newListFixture(tb testing.TB, pages, queries int) *listFixture {
	tb.Helper()
	cfg := corpus.TableSConfig(1)
	cfg.Pages = pages
	srv := newServer(briq.New(briq.WithWorkers(1)), serverOptions{})
	seg := document.NewSegmenter()
	var entries []quantsearch.Entry
	for _, pg := range corpus.Generate(cfg).Pages {
		html := pg.HTML()
		if res := srv.ingestor.Page(context.Background(), pg.ID, html); res.Error != "" {
			tb.Fatalf("ingest %s: %s", pg.ID, res.Error)
		}
		docs, err := seg.SegmentPage(pg.ID, htmlx.ParseString(html))
		if err != nil {
			tb.Fatal(err)
		}
		for _, d := range docs {
			entries = append(entries, quantsearch.EntriesFromDocument(d)...)
		}
	}
	return &listFixture{
		srv:      srv,
		queries:  benchShapedQueries(rand.New(rand.NewSource(1)), entries, queries),
		entities: srv.store.Entities(),
	}
}

// benchShapedQueries samples n /v1/search queries from index entries as
// bench/'s search_mixed workload does: one keyword of four or more letters
// from the entry's header, entity or caption, compared with the entry's
// value; even queries natural-language (q=), odd ones structured, with the
// entry's unit when it reads back as itself.
func benchShapedQueries(rng *rand.Rand, entries []quantsearch.Entry, n int) []url.Values {
	ops := []quantsearch.Comparison{quantsearch.Above, quantsearch.Below, quantsearch.Between}
	var out []url.Values
	for len(out) < n {
		e := entries[rng.Intn(len(entries))]
		var words []string
		for _, s := range []string{e.Header, e.Entity, e.Caption} {
			for _, w := range strings.Fields(strings.ToLower(s)) {
				if len(w) >= 4 && strings.Trim(w, "abcdefghijklmnopqrstuvwxyz") == "" {
					words = append(words, w)
				}
			}
		}
		if len(words) == 0 {
			continue
		}
		kw := words[rng.Intn(len(words))]
		op := ops[rng.Intn(len(ops))]
		if len(out)%2 == 0 {
			if op == quantsearch.Between {
				op = quantsearch.Above
			}
			out = append(out, url.Values{"q": {fmt.Sprintf("%s %s %s", kw, op, strconv.FormatFloat(math.Abs(e.Value), 'f', -1, 64))}})
			continue
		}
		vals := url.Values{"op": {op.String()}, "value": {strconv.FormatFloat(e.Value, 'g', -1, 64)}, "keywords": {kw}}
		if op == quantsearch.Between {
			lo, hi := min(e.Value, e.Value*1.5), max(e.Value, e.Value*1.5)
			vals.Set("value", strconv.FormatFloat(lo, 'g', -1, 64))
			vals.Set("value2", strconv.FormatFloat(hi, 'g', -1, 64))
		}
		if u, err := quantsearch.ParseQuery("x of 1 " + e.Unit); e.Unit != "" && err == nil && u.Unit == e.Unit {
			vals.Set("unit", e.Unit)
		}
		out = append(out, vals)
	}
	return out
}

// getList serves GET route with the raw query string through the full
// middleware.
func getList(srv *server, route, rawQuery string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, route, nil)
	req.URL.RawQuery = rawQuery
	rec := httptest.NewRecorder()
	srv.routes().ServeHTTP(rec, req)
	return rec
}

// wantList is the response of a list endpoint to vals, worked out from the
// whole list as the reflective handlers answered: 422 bad_query for
// parameters it cannot read, else what api.WriteResult writes for api.Page of
// the whole ranked list, Store.Search's for /v1/search and FactsFor's for
// /v1/facts.
func wantList(srv *server, route string, vals url.Values) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	offset, limit, err := parsePage(vals)
	var page api.Paginated
	switch route {
	case "/v1/search":
		q, qerr := parseSearchQuery(vals)
		if qerr != nil {
			err = qerr
		} else if err == nil {
			page.Items, page.NextCursor = api.Page(srv.store.Search(q), offset, limit)
		}
	case "/v1/facts":
		entity := facts.CanonicalEntity(vals.Get("entity"))
		if entity == "" {
			err = errors.New("missing entity parameter")
		} else if err == nil {
			page.Items, page.NextCursor = api.Page(srv.store.FactsFor(entity), offset, limit)
		}
	}
	if err != nil {
		api.WriteError(rec, api.CodeBadQuery, "")
		return rec
	}
	api.WriteResult(rec, page)
	return rec
}

// sameList fails t unless got answers as want does: the same status, the
// same body for a 200, the same error code otherwise.
func sameList(t *testing.T, label string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code {
		t.Fatalf("%s: status %d, want %d (body %.300s)", label, got.Code, want.Code, got.Body.String())
	}
	if want.Code == http.StatusOK {
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: body\n%.600s\nwant\n%.600s", label, got.Body.String(), want.Body.String())
		}
		return
	}
	if !strings.Contains(got.Body.String(), `"code": "`+api.CodeBadQuery+`"`) {
		t.Fatalf("%s: status %d without code %q: %.300s", label, got.Code, api.CodeBadQuery, got.Body.String())
	}
}

// listPagesSHA256 is the SHA-256 of every body TestListPagesMatchPage reads,
// in order, as the handlers answered when each ranked, built and encoded its
// whole list through json.Marshal.
const listPagesSHA256 = "ce8da918cd3087e35136c76104ab06fdae79952b14310a68caa4f9633d608272"

// TestListPagesMatchPage pins /v1/search and /v1/facts to their whole-list
// reference on an 80-page tableS store. For every bench-shaped query and
// every entity, at cursors on both sides of the default page size and of
// the list's end and at every kind of limit, each body must be what
// api.WriteResult writes for api.Page of the whole list, and the digest of
// all of them must not move.
func TestListPagesMatchPage(t *testing.T) {
	fx := newListFixture(t, 80, 60)
	limits := []string{"", "1", "7", "100", "1000"}
	digest := sha256.New()
	bodies := 0
	walk := func(route string, base url.Values, total int) {
		cursors := []string{"", "1", "19", "20"}
		for _, c := range []int{total - 1, total, total + 5} {
			if c >= 0 {
				cursors = append(cursors, strconv.Itoa(c))
			}
		}
		for _, cursor := range append(cursors, "9223372036854775807") {
			for _, limit := range limits {
				vals := url.Values{}
				for k, v := range base {
					vals[k] = v
				}
				if cursor != "" {
					vals.Set("cursor", cursor)
				}
				if limit != "" {
					vals.Set("limit", limit)
				}
				got := getList(fx.srv, route, vals.Encode())
				sameList(t, route+"?"+vals.Encode(), got, wantList(fx.srv, route, vals))
				digest.Write(got.Body.Bytes())
				bodies++
			}
		}
	}
	results := 0
	for _, vals := range fx.queries {
		q, err := parseSearchQuery(vals)
		if err != nil {
			t.Fatalf("bench-shaped query %v: %v", vals, err)
		}
		total := len(fx.srv.store.Search(q))
		results += total
		walk("/v1/search", vals, total)
	}
	for _, e := range fx.entities {
		walk("/v1/facts", url.Values{"entity": {e}}, len(fx.srv.store.FactsFor(e)))
	}
	if results <= 20*len(fx.queries) {
		t.Errorf("%d queries average %d results; the pin needs lists longer than a page", len(fx.queries), results/len(fx.queries))
	}
	got := hex.EncodeToString(digest.Sum(nil))
	t.Logf("%d bodies, %d queries (%d results), %d entities: SHA-256 %s", bodies, len(fx.queries), results, len(fx.entities), got)
	if got != listPagesSHA256 {
		t.Errorf("SHA-256 of the list bodies = %s, want %s", got, listPagesSHA256)
	}
}

// BenchmarkListReads times GET /v1/search and GET /v1/facts through the full
// middleware on the store of 160 tableS seed-1 pages, with allocations:
// search round-robins 320 bench-shaped queries and facts 160 sampled
// entities, each reading a first page of 20 as bench/'s search_mixed does.
// It reports the mean length of the lists the pages come from.
func BenchmarkListReads(b *testing.B) {
	fx := newListFixture(b, 160, 320)
	rng := rand.New(rand.NewSource(1))
	var search, entities []string
	searched, found := 0, 0
	for _, vals := range fx.queries {
		q, err := parseSearchQuery(vals)
		if err != nil {
			b.Fatal(err)
		}
		searched += len(fx.srv.store.Search(q))
		search = append(search, vals.Encode()+"&limit=20")
	}
	for i := 0; i < 160; i++ {
		e := fx.entities[rng.Intn(len(fx.entities))]
		found += len(fx.srv.store.FactsFor(e))
		entities = append(entities, url.Values{"entity": {e}, "limit": {"20"}}.Encode())
	}
	for _, tc := range []struct {
		route   string
		queries []string
		listed  int
	}{{"/v1/search", search, searched}, {"/v1/facts", entities, found}} {
		b.Run(strings.TrimPrefix(tc.route, "/v1/"), func(b *testing.B) {
			h := fx.srv.routes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodGet, tc.route, nil)
				req.URL.RawQuery = tc.queries[i%len(tc.queries)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %.300s", rec.Code, rec.Body.String())
				}
			}
			b.ReportMetric(float64(tc.listed)/float64(len(tc.queries)), "listed/op")
		})
	}
}
