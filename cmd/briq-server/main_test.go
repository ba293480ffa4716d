package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"briq"
	"briq/client"
	"briq/internal/api"
	"briq/internal/core"
	"briq/internal/htmlx"
)

const testPage = `<html><body>
<p>A total of 123 patients reported side effects, with 69 female patients.</p>
<table>
<caption>side effects reported by patients</caption>
<tr><th>side effects</th><th>male</th><th>female</th><th>total</th></tr>
<tr><td>Rash</td><td>15</td><td>20</td><td>35</td></tr>
<tr><td>Depression</td><td>13</td><td>25</td><td>38</td></tr>
<tr><td>Hypertension</td><td>19</td><td>15</td><td>34</td></tr>
<tr><td>Nausea</td><td>5</td><td>6</td><td>11</td></tr>
<tr><td>Eye Disorders</td><td>2</td><td>3</td><td>5</td></tr>
</table>
</body></html>`

func newTestServer() *server {
	return newServer(briq.New(briq.WithWorkers(2)), serverOptions{})
}

// testPageDocs segments testPage as /v1/align names it.
func testPageDocs(t *testing.T, srv *server) []*briq.Document {
	t.Helper()
	docs, err := srv.pipeline.Segmenter.SegmentPage("request", htmlx.ParseString(testPage))
	if err != nil || len(docs) == 0 {
		t.Fatalf("testPage segments to %d documents (%v)", len(docs), err)
	}
	return docs
}

// do routes a request through the full middleware stack, exactly as the
// listener would.
func do(t *testing.T, srv *server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	srv.routes().ServeHTTP(rec, req)
	return rec
}

func TestHandleAlign(t *testing.T) {
	srv := newTestServer()
	rec := do(t, srv, http.MethodPost, "/v1/align", testPage)

	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Result struct {
			Alignments []briq.Alignment `json:"alignments"`
		} `json:"result"`
		Error *api.Error `json:"error"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != nil {
		t.Fatalf("success response carries error: %+v", resp.Error)
	}
	if len(resp.Result.Alignments) == 0 {
		t.Fatal("no alignments in response")
	}
	foundSum := false
	for _, a := range resp.Result.Alignments {
		if a.AggName == "sum" && a.Value == 123 {
			foundSum = true
		}
	}
	if !foundSum {
		t.Errorf("column sum 123 not in response: %+v", resp.Result.Alignments)
	}
}

// errorPath is one failure-mode request of TestErrorPaths.
type errorPath struct {
	name       string
	method     string
	path       string
	body       string
	wantStatus int
}

// errorPaths are the rows of TestErrorPaths; the POST /v1/align/batch rows
// also seed FuzzAlignBatch.
func errorPaths() []errorPath {
	bigBody := strings.Repeat("a", maxBody+1)
	manyPages := `{"pages": [`
	for i := 0; i <= maxBatchPages; i++ {
		if i > 0 {
			manyPages += ","
		}
		manyPages += fmt.Sprintf(`{"id": "p%d", "html": "<p>x %d</p>"}`, i, i)
	}
	manyPages += `]}`

	return []errorPath{
		{"align wrong method", http.MethodGet, "/v1/align", "", http.StatusMethodNotAllowed},
		{"align empty body", http.MethodPost, "/v1/align", "", http.StatusBadRequest},
		{"align body over maxBody", http.MethodPost, "/v1/align", bigBody, http.StatusBadRequest},
		{"align malformed (non-UTF-8) HTML", http.MethodPost, "/v1/align", "<p>\xff\xfe broken</p>", http.StatusBadRequest},
		{"summarize wrong method", http.MethodGet, "/v1/summarize", "", http.StatusMethodNotAllowed},
		{"summarize empty body", http.MethodPost, "/v1/summarize", "", http.StatusBadRequest},
		{"batch wrong method", http.MethodGet, "/v1/align/batch", "", http.StatusMethodNotAllowed},
		{"batch malformed JSON", http.MethodPost, "/v1/align/batch", `{"pages": [`, http.StatusBadRequest},
		{"batch no pages", http.MethodPost, "/v1/align/batch", `{"pages": []}`, http.StatusBadRequest},
		{"batch empty html", http.MethodPost, "/v1/align/batch", `{"pages": [{"id": "a", "html": ""}]}`, http.StatusBadRequest},
		{"batch duplicate ids", http.MethodPost, "/v1/align/batch", `{"pages": [{"id": "a", "html": "<p>1</p>"}, {"id": "a", "html": "<p>2</p>"}]}`, http.StatusBadRequest},
		{"batch non-UTF-8 html", http.MethodPost, "/v1/align/batch", `{"pages": [{"id": "a", "html": "�"}]}`, http.StatusOK},                                    // U+FFFD itself is valid UTF-8
		{"batch raw non-UTF-8 byte", http.MethodPost, "/v1/align/batch", "{\"pages\": [{\"id\": \"a\", \"html\": \"<p>\xff 12</p>\"}]}", http.StatusBadRequest}, // encoding/json would read U+FFFD
		{"batch too many pages", http.MethodPost, "/v1/align/batch", manyPages, http.StatusRequestEntityTooLarge},
		{"metrics wrong method", http.MethodPost, "/v1/metrics", "", http.StatusMethodNotAllowed},
	}
}

// TestErrorPaths drives every endpoint's failure modes through the middleware
// and checks both the status code and the error counters.
func TestErrorPaths(t *testing.T) {
	for _, tt := range errorPaths() {
		t.Run(tt.name, func(t *testing.T) {
			srv := newTestServer()
			rec := do(t, srv, tt.method, tt.path, tt.body)
			if rec.Code != tt.wantStatus {
				t.Fatalf("status = %d, want %d (body: %.200s)", rec.Code, tt.wantStatus, rec.Body.String())
			}
			if tt.wantStatus >= 400 && tt.wantStatus < 500 {
				if got := srv.metrics.errors.Get("http_4xx"); got != 1 {
					t.Errorf("http_4xx counter = %d, want 1", got)
				}
			}
		})
	}
}

// handleAlignBatchBody is the request of TestHandleAlignBatch, which also
// seeds FuzzAlignBatch.
func handleAlignBatchBody() string {
	body, _ := json.Marshal(batchRequest{Pages: []batchPage{
		{ID: "first", HTML: testPage},
		{HTML: testPage}, // unnamed → page1
		{ID: "plain", HTML: "<p>no tables here, just 42 words</p>"},
	}})
	return string(body)
}

func TestHandleAlignBatch(t *testing.T) {
	srv := newTestServer()
	rec := do(t, srv, http.MethodPost, "/v1/align/batch", handleAlignBatchBody())
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}

	var env struct {
		Result struct {
			Pages      []batchPageResult `json:"pages"`
			Documents  int               `json:"documents"`
			Alignments int               `json:"alignments"`
		} `json:"result"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp := env.Result
	if len(resp.Pages) != 3 {
		t.Fatalf("pages in response = %d, want 3", len(resp.Pages))
	}
	if resp.Pages[0].ID != "first" || resp.Pages[1].ID != "page1" || resp.Pages[2].ID != "plain" {
		t.Errorf("page ids = %q, %q, %q", resp.Pages[0].ID, resp.Pages[1].ID, resp.Pages[2].ID)
	}
	for i := 0; i < 2; i++ {
		if len(resp.Pages[i].Alignments) == 0 {
			t.Errorf("page %d: no alignments", i)
		}
		for _, a := range resp.Pages[i].Alignments {
			if !strings.HasPrefix(a.DocID, resp.Pages[i].ID) {
				t.Errorf("page %d: alignment doc %q not from this page", i, a.DocID)
			}
		}
	}
	// A page without tables aligns nothing but still reports as empty, not null.
	if resp.Pages[2].Alignments == nil || len(resp.Pages[2].Alignments) != 0 {
		t.Errorf("tableless page alignments = %v, want []", resp.Pages[2].Alignments)
	}
	if resp.Alignments == 0 || resp.Documents == 0 {
		t.Errorf("totals = %d docs / %d alignments, want > 0", resp.Documents, resp.Alignments)
	}
}

// TestMetricsChangeAfterBatch is the acceptance check: stage latency and
// request counters visible in GET /metrics must move after a 3-page batch.
// On a cached server the batch's repeat is answered from its page entries:
// the batch section grows by as much as on the first POST, and no stage
// runs.
func TestMetricsChangeAfterBatch(t *testing.T) {
	srv := newServer(briq.New(briq.WithWorkers(2), briq.WithCache(8<<20)), serverOptions{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string]any {
		m, err := c.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]any, len(m.Raw))
		for section, raw := range m.Raw {
			var v any
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Fatal(err)
			}
			out[section] = v
		}
		return out
	}

	before := snapshot()
	if n := before["requests"].(map[string]any)["align_batch"].(float64); n != 0 {
		t.Fatalf("cold server align_batch count = %v", n)
	}

	batch := []client.Page{{ID: "a", HTML: testPage}, {ID: "b", HTML: testPage}, {ID: "c", HTML: testPage}}
	if _, err := c.AlignBatch(context.Background(), batch); err != nil {
		t.Fatalf("batch failed: %v", err)
	}

	after := snapshot()
	if n := after["requests"].(map[string]any)["align_batch"].(float64); n != 1 {
		t.Errorf("align_batch count = %v, want 1", n)
	}
	if n := after["batch"].(map[string]any)["pages"].(float64); n != 3 {
		t.Errorf("batch pages counter = %v, want 3", n)
	}
	stages := after["stages"].(map[string]any)
	for _, stage := range []string{core.StageSegment, core.StageClassify, core.StageFilter, core.StageResolve} {
		s := stages[stage].(map[string]any)
		if count := s["count"].(float64); count == 0 {
			t.Errorf("stage %q count still 0 after batch", stage)
		}
		if sum := s["sum_ms"].(float64); sum <= 0 {
			t.Errorf("stage %q sum_ms = %v, want > 0", stage, sum)
		}
	}

	if _, err := c.AlignBatch(context.Background(), batch); err != nil {
		t.Fatalf("repeated batch failed: %v", err)
	}
	again := snapshot()
	for _, name := range []string{"pages", "documents", "alignments"} {
		b0 := before["batch"].(map[string]any)[name].(float64)
		b1 := after["batch"].(map[string]any)[name].(float64)
		b2 := again["batch"].(map[string]any)[name].(float64)
		if b1-b0 == 0 || b2-b1 != b1-b0 {
			t.Errorf("batch %s grew by %v on the first POST and by %v on its repeat, want the same nonzero amount", name, b1-b0, b2-b1)
		}
	}
	for stage, s := range again["stages"].(map[string]any) {
		if n, was := s.(map[string]any)["count"].(float64), after["stages"].(map[string]any)[stage].(map[string]any)["count"].(float64); n != was {
			t.Errorf("stage %q ran %v times on the repeated batch, want 0", stage, n-was)
		}
	}
	// One serving lookup per page entry, then one per document.
	delta := func(name string) float64 {
		return again["serving"].(map[string]any)[name].(float64) - after["serving"].(map[string]any)[name].(float64)
	}
	docs := after["batch"].(map[string]any)["documents"].(float64) - before["batch"].(map[string]any)["documents"].(float64)
	if hits, misses := delta("hits"), delta("misses"); hits != float64(len(batch))+docs || misses != 0 {
		t.Errorf("repeated batch: serving hits +%v, misses +%v; want +%v (%d pages, %v documents) and +0",
			hits, misses, float64(len(batch))+docs, len(batch), docs)
	}
}

// TestInstrumentRecoversPanics locks in the recovery middleware: a panicking
// handler yields a 500, bumps the panic counter, and leaves the server alive.
func TestInstrumentRecoversPanics(t *testing.T) {
	srv := newTestServer()
	h := srv.instrument("align", func(http.ResponseWriter, *http.Request) {
		panic("handler exploded")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/align", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	if got := srv.metrics.errors.Get("panics"); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if got := srv.metrics.errors.Get("http_5xx"); got != 1 {
		t.Errorf("http_5xx counter = %d, want 1", got)
	}
}

// TestRequestDeadline verifies the per-request context deadline answers 504
// deadline at the next cooperative checkpoint instead of burning CPU.
func TestRequestDeadline(t *testing.T) {
	srv := newServer(briq.New(briq.WithWorkers(1)), serverOptions{requestTimeout: time.Nanosecond})
	body, _ := json.Marshal(batchRequest{Pages: []batchPage{{ID: "a", HTML: testPage}}})
	rec := do(t, srv, http.MethodPost, "/v1/align/batch", string(body))
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", rec.Code)
	}
	var env api.Envelope
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.CodeDeadline {
		t.Errorf("error = %+v, want code %q", env.Error, api.CodeDeadline)
	}
}

func TestHandleSummarize(t *testing.T) {
	srv := newTestServer()
	rec := do(t, srv, http.MethodPost, "/v1/summarize", testPage)

	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Result struct {
			Summaries []struct {
				DocID     string   `json:"doc_id"`
				Sentences []string `json:"sentences"`
			} `json:"summaries"`
		} `json:"result"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Summaries) == 0 || len(resp.Result.Summaries[0].Sentences) == 0 {
		t.Fatalf("empty summary: %s", rec.Body.String())
	}
}

// TestSummarizeDeadline: /v1/summarize aligns under the request context, so
// -request-timeout stops a page it cannot finish in time. The page is
// internal/core's TestAlignContextDeadlineStopsLargeDocument document written
// as HTML: a paragraph of 1,000 sentences, 2,000 text mentions, beside four
// 8×4 tables. With a 200 ms timeout the route must answer 504 deadline
// within the timeout plus that test's 10 s slack.
func TestSummarizeDeadline(t *testing.T) {
	const (
		timeout = 200 * time.Millisecond
		slack   = 10 * time.Second
	)
	blocks := []htmlx.Block{&htmlx.Paragraph{Text: strings.Repeat("Revenue was 123.4 million USD in region 7. ", 1000)}}
	for k := 0; k < 4; k++ {
		grid := make([][]string, 8)
		for r := range grid {
			for c := 0; c < 4; c++ {
				grid[r] = append(grid[r], fmt.Sprint(10+k*100+r*7+c*3))
			}
		}
		blocks = append(blocks, &htmlx.TableBlock{Caption: "revenue by region", Grid: grid})
	}
	page := htmlx.Render(&htmlx.Page{Blocks: blocks})
	srv := newServer(briq.New(briq.WithWorkers(1)), serverOptions{requestTimeout: timeout})
	docs, err := srv.pipeline.Segmenter.SegmentPage("request", htmlx.ParseString(page))
	if err != nil || len(docs) != 1 || len(docs[0].TextMentions) != 2000 {
		t.Fatalf("page segments to %d documents (%v); want one with 2,000 text mentions", len(docs), err)
	}

	start := time.Now()
	rec := do(t, srv, http.MethodPost, "/v1/summarize", page)
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), `"code": "`+api.CodeDeadline+`"`) {
		t.Fatalf("status = %d, want 504 deadline (body: %.300s)", rec.Code, rec.Body.String())
	}
	if elapsed > timeout+slack {
		t.Fatalf("answered after %v; want at most %v (timeout %v + slack %v)", elapsed, timeout+slack, timeout, slack)
	}
	t.Logf("%d-byte page: 504 after %v", len(page), elapsed)
}

// TestServeGracefulShutdown exercises the real signal path: serve must return
// cleanly (not crash, not hang) after SIGTERM.
func TestServeGracefulShutdown(t *testing.T) {
	srv := newTestServer()
	httpSrv := &http.Server{Addr: "127.0.0.1:0", Handler: srv.routes()}
	done := make(chan error, 1)
	go func() { done <- serve(httpSrv, 5*time.Second) }()
	// Let serve register its signal handler before the signal fires; an
	// unhandled SIGTERM would kill the whole test binary.
	time.Sleep(300 * time.Millisecond)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down after SIGTERM")
	}
}
