package api

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/facts"
	"briq/internal/obs"
	"briq/internal/quantsearch"
	"briq/internal/serve"
	"briq/internal/store"
	"briq/internal/summarize"
)

// FuzzAppendIndent: for any value json.Unmarshal accepts, indenting its
// json.Marshal bytes yields exactly what json.MarshalIndent writes.
func FuzzAppendIndent(f *testing.F) {
	for _, seed := range []string{
		`{}`, `[]`, `{"a":{},"b":[],"c":[{}],"d":[[]]}`,
		`"a \"quoted\" \\ backslash \\"`, `{"k\"ey\\":"v\\\""}`,
		`"<script>&amp;</script>"`, "\"line\u2028separator\u2029\"",
		`[{"a":1,"b":[{"c":null,"d":true}]},{"e":-1.5e-7,"f":"x,y:z{}[]"}]`,
		`null`, `0`, `"\u0000\t\n"`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) != nil {
			return
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got := appendIndent(nil, compact, 0); !bytes.Equal(got, want) {
			t.Fatalf("appendIndent(%s)\ngot:\n%s\nwant:\n%s", compact, got, want)
		}
	})
}

// responseShapes returns one value of each response body the server and
// gateway write, built from a generated corpus's real alignments.
func responseShapes(t testing.TB) map[string]any {
	cfg := corpus.TableSConfig(1)
	cfg.Pages = 4
	docs := corpus.Generate(cfg).Docs
	p := core.NewPipeline()
	doc := docs[0]
	als := p.Align(doc)
	if len(als) == 0 {
		t.Fatal("generated document has no alignments")
	}

	type batchPageResult struct {
		ID         string           `json:"id"`
		Documents  int              `json:"documents"`
		Alignments []core.Alignment `json:"alignments"`
	}
	type docSummary struct {
		DocID     string   `json:"doc_id"`
		Sentences []string `json:"sentences"`
	}
	sum := docSummary{DocID: doc.ID}
	for _, s := range summarize.New(p).Summarize(doc).Sentences {
		sum.Sentences = append(sum.Sentences, s.Text)
	}

	results := quantsearch.BuildIndex(docs).Search(quantsearch.Query{Op: quantsearch.Above, Value: 0})
	searchItems, searchNext := Page(results, 0, DefaultPageSize)
	factItems, factNext := Page(facts.Extract(doc, als), 0, DefaultPageSize)

	stages := obs.NewRecorder(core.StageNames()...)
	stages.Observe(core.StageNames()[0], 3*time.Millisecond)
	requests := obs.NewCounterSet(RouteNames()...)
	requests.Inc(RouteNames()[0])

	return map[string]any{
		"align": Envelope{Result: map[string]any{"alignments": als}},
		"batch": Envelope{Result: map[string]any{
			"pages": []batchPageResult{
				{ID: "page0", Documents: 1, Alignments: als},
				{ID: "page<1>&", Documents: 0, Alignments: nil},
			},
			"documents":  1,
			"alignments": len(als),
		}},
		"search":       Envelope{Result: Paginated{Items: searchItems, NextCursor: searchNext}},
		"search_empty": Envelope{Result: Paginated{Items: []quantsearch.Result{}, NextCursor: ""}},
		"facts":        Envelope{Result: Paginated{Items: factItems, NextCursor: factNext}},
		"summarize":    Envelope{Result: map[string]any{"summaries": []docSummary{sum}}},
		"error":        Envelope{Error: &Error{Code: CodeBadQuery, Message: `quantsearch: bad query: unknown comparison "< >"`}},
		"metrics": map[string]any{
			"uptime_seconds": 12.5,
			"requests":       requests.Snapshot(),
			"stages":         stages.Snapshot(),
			"serving":        (*serve.Engine)(nil).Counters(),
			"store":          (*store.Store)(nil).Counters(),
			"model":          map[string]string{"fingerprint": p.Fingerprint()},
		},
	}
}

// TestWriteResultJSONMatchesWriteResult: for every success body, wrapping
// the result's json.Marshal bytes answers what WriteResult answers.
func TestWriteResultJSONMatchesWriteResult(t *testing.T) {
	for name, v := range responseShapes(t) {
		env, ok := v.(Envelope)
		if !ok || env.Error != nil {
			continue
		}
		result, err := json.Marshal(env.Result)
		if err != nil {
			t.Fatal(err)
		}
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		WriteResult(want, env.Result)
		WriteResultJSON(got, result)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: WriteResultJSON answered %d %q\n%s\nWriteResult answered %d %q\n%s", name,
				got.Code, got.Header().Get("Content-Type"), got.Body, want.Code, want.Header().Get("Content-Type"), want.Body)
		}
	}
}

// TestWriteJSONEncodeFailure is the WriteJSON regression test: when
// encoding fails before anything is written, the client gets a clean 500,
// not a half-committed 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]any{"bad": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "encode response") {
		t.Errorf("body = %q, want encode failure message", body)
	}
}

func TestWriteJSONSetsStatusBeforeBody(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, map[string]any{"ok": true})
	if rec.Code != http.StatusCreated {
		t.Errorf("status = %d, want 201", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var v map[string]bool
	if err := json.NewDecoder(rec.Body).Decode(&v); err != nil || !v["ok"] {
		t.Errorf("body did not round-trip: %v %v", v, err)
	}
}

// TestWriteJSONMatchesMarshalIndent: every response shape the server and
// gateway write reaches the wire as json.MarshalIndent's bytes plus a
// newline, the bytes clients (and the benchmark) compare against.
func TestWriteJSONMatchesMarshalIndent(t *testing.T) {
	for name, v := range responseShapes(t) {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, v)
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, append(want, '\n')) {
			t.Errorf("%s: body differs from MarshalIndent\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// discardWriter is an http.ResponseWriter that drops the body.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkWriteJSON encodes one 20-item /v1/search page in its envelope,
// the body every search_mixed read pays for.
func BenchmarkWriteJSON(b *testing.B) {
	page := responseShapes(b)["search"]
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WriteJSON(w, http.StatusOK, page)
	}
}
