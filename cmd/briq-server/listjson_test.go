package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"briq/internal/api"
	"briq/internal/facts"
	"briq/internal/quantsearch"
)

// samePage holds the page appender over items to json.MarshalIndent of the
// same api.Paginated in its envelope.
func samePage[T any](t *testing.T, name string, items []T, next string, appendItem func([]byte, *T, int) ([]byte, bool)) {
	t.Helper()
	sameAsMarshal(t, name, func(dst []byte, depth int) ([]byte, bool) {
		return appendPage(dst, items, next, depth, appendItem)
	}, api.Paginated{Items: items, NextCursor: next})
}

// checkPages runs the page appenders over results and found, each as a nil,
// an empty and a full list, and holds them to json.MarshalIndent of the same
// api.Paginated in its envelope.
func checkPages(t *testing.T, name string, results []quantsearch.Result, found []facts.Fact, next string) {
	t.Helper()
	for _, items := range [][]quantsearch.Result{nil, {}, results} {
		samePage(t, name+" /v1/search", items, next, appendResult)
	}
	for _, items := range [][]facts.Fact{nil, {}, found} {
		samePage(t, name+" /v1/facts", items, next, appendFact)
	}
}

func TestAppendPagesMatchMarshal(t *testing.T) {
	fx := newListFixture(t, 8, 0)
	results := fx.srv.store.Search(quantsearch.Query{Op: quantsearch.Above, Value: math.Inf(-1)})
	var found []facts.Fact
	for _, e := range fx.entities {
		found = append(found, fx.srv.store.FactsFor(e)...)
	}
	if len(results) == 0 || len(found) == 0 {
		t.Fatalf("store holds %d entries and %d facts; want both", len(results), len(found))
	}
	checkPages(t, "tableS store", results, found, "20")

	odd := "d<0>&\"q\"\\ ctl \x00\x01\b\f\n\r\t\x1f\x7f bad utf8 \xff\xfe \u2028\u2029 é €"
	r := quantsearch.Result{Entry: quantsearch.Entry{DocID: odd, TableID: odd, Row: -1, Col: math.MaxInt32,
		Entity: odd, Header: odd, Unit: odd, Caption: odd}, Matched: math.MinInt32}
	f := facts.Fact{Entity: odd, Measure: odd, Agg: odd, DocID: odd, TableKey: odd, TextSurface: odd}
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -2.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, -1e21,
		5e-324, math.MaxFloat64, 1.0 / 3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		r.Value = v
		f.Value, f.Confidence, f.Unit = -v, v, ""
		checkPages(t, "edge values", []quantsearch.Result{results[0], r}, []facts.Fact{found[0], f}, odd)
		f.Unit = odd
		checkPages(t, "edge values with a unit", []quantsearch.Result{r}, []facts.Fact{f, found[0]}, "")
	}

	// A page the appender refuses is answered as api.WriteResult answers it.
	r.Value = math.NaN()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	writePage(got, []quantsearch.Result{r}, "", appendResult)
	api.WriteResult(want, api.Paginated{Items: []quantsearch.Result{r}})
	if got.Code != want.Code || got.Body.String() != want.Body.String() {
		t.Errorf("NaN page: %d %q, want %d %q", got.Code, got.Body.String(), want.Code, want.Body.String())
	}
}

// FuzzAppendSearchPage: for any result, the /v1/search page appender writes
// the body json.MarshalIndent writes for the same api.Paginated, and refuses
// what it refuses, for a nil, an empty and a one- and a two-item list.
func FuzzAppendSearchPage(f *testing.F) {
	f.Add("pg0-d0", "pg0-t0", "Rash", "total", "USD", "side effects", 3, 2, 1, 35.0, "20")
	f.Add("<d>&", "\x00\xff\u2028", "\"k\"\\", "", "", "\t", -1, 0, 0, math.NaN(), "")
	f.Add("", "", "", "", "", "", 0, 0, 0, math.Inf(-1), "9223372036854775807")
	f.Fuzz(func(t *testing.T, docID, tableID, entity, header, unit, caption string, row, col, matched int, value float64, next string) {
		r := quantsearch.Result{Entry: quantsearch.Entry{DocID: docID, TableID: tableID, Row: row, Col: col,
			Entity: entity, Header: header, Value: value, Unit: unit, Caption: caption}, Matched: matched}
		for _, items := range [][]quantsearch.Result{nil, {}, {r}, {r, r}} {
			samePage(t, "fuzzed", items, next, appendResult)
		}
	})
}

// FuzzAppendFactsPage: for any fact, the /v1/facts page appender writes the
// body json.MarshalIndent writes for the same api.Paginated, an empty unit
// omitted, and refuses what it refuses, for a nil, an empty and a one- and a
// two-item list.
func FuzzAppendFactsPage(f *testing.F) {
	f.Add("rash", "total side effects", "", "sum", "pg0-d0", "t0:sum(col 3)", "a total of 123", 123.0, 0.87, "20")
	f.Add("<e>&", "\x00\xff\u2028", "USD", "\"k\"\\", "", "", "\t", 1e-7, math.Inf(1), "")
	f.Add("", "", "", "", "", "", "", math.NaN(), 0.0, "9223372036854775807")
	f.Fuzz(func(t *testing.T, entity, measure, unit, agg, docID, tableKey, surface string, value, confidence float64, next string) {
		fact := facts.Fact{Entity: entity, Measure: measure, Value: value, Unit: unit, Agg: agg,
			DocID: docID, TableKey: tableKey, TextSurface: surface, Confidence: confidence}
		for _, items := range [][]facts.Fact{nil, {}, {fact}, {fact, fact}} {
			samePage(t, "fuzzed", items, next, appendFact)
		}
	})
}

// discardWriter is an http.ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkWriteJSON writes one 20-item /v1/search page in its envelope,
// the body every search_mixed read pays for: through the page appender,
// in one pass, as the route writes it (appender), and by reflection, as
// api.WriteJSON writes the answers no appender writes (reflect).
func BenchmarkWriteJSON(b *testing.B) {
	fx := newListFixture(b, 8, 0)
	items, next := api.Page(fx.srv.store.Search(quantsearch.Query{Op: quantsearch.Above, Value: 0}), 0, api.DefaultPageSize)
	if len(items) != api.DefaultPageSize {
		b.Fatalf("page of %d results, want %d", len(items), api.DefaultPageSize)
	}
	w := &discardWriter{h: http.Header{}}
	b.Run("appender", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			writePage(w, items, next, appendResult)
		}
	})
	b.Run("reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			api.WriteResult(w, api.Paginated{Items: items, NextCursor: next})
		}
	})
}
