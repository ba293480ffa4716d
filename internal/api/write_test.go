package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
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

// TestWriteResultJSONMatchesWriteResult: for every success body, a result
// appended as json.MarshalIndent indents it at the depth WriteResultJSON
// hands over answers what WriteResult answers, headers included, and a
// result the appender refuses writes nothing.
func TestWriteResultJSONMatchesWriteResult(t *testing.T) {
	for name, v := range responseShapes(t) {
		env, ok := v.(Envelope)
		if !ok || env.Error != nil {
			continue
		}
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		WriteResult(want, env.Result)
		wrote := WriteResultJSON(got, 0, func(dst []byte, depth int) ([]byte, bool) {
			result, err := json.MarshalIndent(env.Result, strings.Repeat("  ", depth), "  ")
			return append(dst, result...), err == nil
		})
		if !wrote || got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: WriteResultJSON answered %t %d %v\n%s\nWriteResult answered %d %v\n%s", name,
				wrote, got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
	rec := httptest.NewRecorder()
	if WriteResultJSON(rec, 0, func(dst []byte, _ int) ([]byte, bool) { return append(dst, "garbage"...), false }) ||
		rec.Body.Len() != 0 || len(rec.Header()) != 0 {
		t.Errorf("a refused result wrote %d %v %q", rec.Code, rec.Header(), rec.Body)
	}
}

// TestWholeBodiesCarryContentLength: every whole JSON body goes out with its
// length, so a body over net/http's 2 KB chunking threshold reaches the
// client unchunked: a 12 KB result, an error and a reflected body.
func TestWholeBodiesCarryContentLength(t *testing.T) {
	big := strings.Repeat("x", 12<<10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/result":
			WriteResultJSON(w, 0, func(dst []byte, _ int) ([]byte, bool) {
				return strconv.AppendQuote(dst, big), true
			})
		case "/error":
			WriteError(w, CodeBadQuery, big)
		default:
			WriteJSON(w, http.StatusOK, map[string]string{"big": big})
		}
	}))
	defer srv.Close()
	for _, path := range []string{"/result", "/error", "/reflected"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) || len(body) < 12<<10 {
			t.Errorf("%s: %d bytes sent with Transfer-Encoding %v and Content-Length %d; want the length, unchunked",
				path, len(body), resp.TransferEncoding, resp.ContentLength)
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
