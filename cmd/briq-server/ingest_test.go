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
	"briq/internal/api"
	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/ingest"
	"briq/internal/jsonread"
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
// and the seeds of FuzzIngestLines: four bad lines, a blank one and a valid
// page.
func ingestValidationLines() []string {
	okLine, _ := json.Marshal(ingestLine{PageID: "ok", HTML: testPage})
	return []string{
		`this is not json`,
		`{"html":"<p>anonymous</p>"}`,
		`{"page_id":"empty","html":""}`,
		"{\"page_id\":\"raw\",\"html\":\"<p>\xff 12</p>\"}", // encoding/json would read U+FFFD
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
	if len(results) != 5 {
		t.Fatalf("got %d response lines, want 5: %+v", len(results), results)
	}
	for i, want := range []struct{ pageID, code, err string }{
		{"line1", api.CodeBadRequest, "decode line 1: "},
		{"line2", api.CodeBadRequest, "line 2: missing page_id"},
		{"empty", api.CodeBadRequest, "empty html"},
		{"line4", api.CodeBadRequest, "line 4 is not valid UTF-8 text"},
	} {
		if results[i].PageID != want.pageID || results[i].Code != want.code || !strings.HasPrefix(results[i].Error, want.err) {
			t.Errorf("line %d = %+v, want page %q code %q error %q", i+1, results[i], want.pageID, want.code, want.err)
		}
	}
	ok := results[4]
	if ok.Error != "" || ok.PageID != "ok" || ok.Realigned == 0 || len(ok.Documents) == 0 {
		t.Fatalf("valid page after bad lines = %+v", ok)
	}
	if got := srv.metrics.ingest.Get("pages"); got != 5 {
		t.Errorf("ingest pages counter = %d, want 5", got)
	}
	if got := srv.metrics.ingest.Get("page_errors"); got != 4 {
		t.Errorf("ingest page_errors counter = %d, want 4", got)
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
	var env api.Envelope
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.CodeMethodNotAllowed {
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
// /v1/ingest run on the ingestor's clones of the server's pipeline, and
// /metrics must count them under stages. One ingest that realigns N
// documents grows stages.classify.count by exactly N, and a repeated scrape
// without traffic reads the same count.
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

// TestIngestHitMatchesMiss: a re-sent page that its page entry answers gets
// the response line, byte for byte, and moves the store and ingest
// counters exactly as, the segmenting path gives for the same bytes. The
// gated server answers the re-send from its entries: it segments nothing
// and counts one serving hit per page. The gate-less server, which has no
// page key, segments every page and reuses every document.
func TestIngestHitMatchesMiss(t *testing.T) {
	cfg := corpus.TableSConfig(67)
	cfg.Pages = 4
	pages := corpus.Generate(cfg).Pages
	// A page with no documents has an entry too.
	body := ndjsonBody(pages) + "\n" + `{"page_id":"plain","html":"<p>no tables here, just 42 words</p>"}`

	hit := newServer(briq.New(briq.WithWorkers(1), briq.WithCache(8<<20)), serverOptions{})
	miss := newServer(briq.New(briq.WithWorkers(1)), serverOptions{})
	resend := func(srv *server) (string, map[string]int64) {
		t.Helper()
		if rec := do(t, srv, http.MethodPost, "/v1/ingest", body); rec.Code != http.StatusOK {
			t.Fatalf("cold ingest: %d: %s", rec.Code, rec.Body.String())
		}
		before := ingestCounters(srv)
		rec := do(t, srv, http.MethodPost, "/v1/ingest", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("re-sent ingest: %d: %s", rec.Code, rec.Body.String())
		}
		after := ingestCounters(srv)
		for name := range after {
			after[name] -= before[name]
		}
		return rec.Body.String(), after
	}

	segments := stageCount(hit, core.StageSegment)
	hitBody, hitDelta := resend(hit)
	missBody, missDelta := resend(miss)
	if hitBody != missBody {
		t.Errorf("re-sent lines answered from page entries:\n%s\nwant the segmenting path's:\n%s", hitBody, missBody)
	}
	if !reflect.DeepEqual(hitDelta, missDelta) {
		t.Errorf("counters moved by %v on page entry hits, by %v on the segmenting path", hitDelta, missDelta)
	}
	if missDelta["store.upserted_pages"] != int64(len(pages)+1) || missDelta["ingest.reused"] == 0 {
		t.Errorf("re-send moved %v; want every page upserted and documents reused", missDelta)
	}
	for _, r := range decodeIngestLines(t, hitBody) {
		if r.Error != "" || r.Realigned != 0 || r.Retracted != 0 {
			t.Errorf("re-sent page %s: %+v", r.PageID, r)
		}
	}
	// The cold pass segmented each page once; the re-send none.
	if n := stageCount(hit, core.StageSegment) - segments; n != int64(len(pages)+1)+int64(len(pages)) {
		t.Errorf("%d segment observations, want %d (each page once, then each page's table mentions)", n, 2*len(pages)+1)
	}
	if c := hit.pipeline.Gate.Counters(); c["hits"] != int64(len(pages)+1) {
		t.Errorf("serving hits = %d, want %d (one page entry per re-sent line)", c["hits"], len(pages)+1)
	}
}

// ingestCounters returns the /metrics store and ingest counters of srv, as
// "section.name".
func ingestCounters(srv *server) map[string]int64 {
	out := map[string]int64{}
	for name, v := range srv.store.Counters() {
		out["store."+name] = v
	}
	for _, name := range []string{"pages", "page_errors", "documents", "reused", "realigned", "retracted"} {
		out["ingest."+name] = srv.metrics.ingest.Get(name)
	}
	return out
}

// ingestLineSeeds are request lines on both sides of decodeIngestLine's
// one-pass form: lines it parses, lines it declines that json.Unmarshal
// reads differently or rejects, and lines cut short.
func ingestLineSeeds() []string {
	return []string{
		`{"page_id":"a","html":"<p>x</p>"}`,
		` {"html":"x" , "page_id":"b"}` + "\t",
		`{"page_id":"a","html":"x"} trailing`, `{"page_id":"a"}{"html":"x"}`,
		`{}`, `null`, `[]`, ``, `   `, `"str"`,
		`{"page_id":null,"html":"x"}`, `{"page_id":1,"html":"x"}`, `{"page_id":"a","html":true}`,
		`{"page_id":"a","html":"x","extra":true}`, `{"id":"a","html":"x"}`,
		`{"PAGE_ID":"a","HTML":"x"}`, `{"Page_Id":"a","html":"x"}`,
		`{"page_id":"a","page_id":"b","html":"x","html":"y"}`,
		`{"page_id":"a","html":"x",}`, `{"page_id" "a"}`, `{"page_id""html":"x"}`, `{"page_id ":"a"}`,
		`{"page\u005fid":"a","html":"x"}`,
		`{"html":"<p> \"q\" \\ \/ \b\f\n\r\t é € \u0000 \u003c"}`,
		`{"html":"\ud83d\ude00 pair"}`, `{"html":"\ud83d lone"}`,
		`{"html":"bad \x escape"}`, `{"html":"\u12G4"}`, `{"html":"\u12"}`,
		"{\"html\":\"raw\ttab\"}", "{\"page_id\":\"caf\xc3\xa9\",\"html\":\"\xe2\x82\xac\"}",
		"{\"html\":\"bad \xff utf8\"}", "{\"html\":\"surrogate \xed\xa0\x80\"}",
		"\xef\xbb\xbf{\"page_id\":\"a\"}",
		`{"page_id":"a","html":"x"`, `{"page_id":"a","html":"x`, `{"page_id":"a","html":"x\`,
		`{"page_id":"a","html":"x\u00`,
	}
}

// sameLine fails t unless decodeIngestLine, through c, gives the page and
// the error json.Unmarshal gives for line.
func sameLine(t *testing.T, c *jsonread.Cursor, line []byte) {
	t.Helper()
	got, gotErr := decodeIngestLine(c, line)
	var want ingestLine
	wantErr := json.Unmarshal(line, &want)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%q: error %v, json.Unmarshal's is %v", line, gotErr, wantErr)
	}
	if gotErr == nil && got != want {
		t.Fatalf("%q: decoded %+v, json.Unmarshal decodes %+v", line, got, want)
	}
}

func TestDecodeIngestLineMatchesUnmarshal(t *testing.T) {
	c := new(jsonread.Cursor) // one cursor for every line, as one stream uses
	for _, line := range ingestLineSeeds() {
		sameLine(t, c, []byte(line))
	}
}

// TestParseIngestTakesClientLines: the lines json.Marshal writes for real
// pages take the one-pass parse, so the fast path is the one streams use.
func TestParseIngestTakesClientLines(t *testing.T) {
	cfg := corpus.TableSConfig(1)
	cfg.Pages = 8
	lines := []ingestLine{{PageID: "odd \"id\" é", HTML: "<p>café \"quoted\" 5\u202f% \u2028 \U0001F600 & \\ \t\n</p>"}}
	for _, pg := range corpus.Generate(cfg).Pages {
		lines = append(lines, ingestLine{PageID: pg.ID, HTML: pg.HTML()})
	}
	c := new(jsonread.Cursor)
	for _, want := range lines {
		line, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var got ingestLine
		c.Reset(line)
		if !parsePageObject(c, "page_id", &got.PageID, &got.HTML) || !c.End() {
			t.Fatalf("the one-pass parse declined a json.Marshal line: %.200s", line)
		}
		if got != want {
			t.Fatalf("the one-pass parse decoded %.100q, want %.100q", got, want)
		}
	}
}

// FuzzDecodeIngestLine: for any line, decodeIngestLine gives the page and
// the error json.Unmarshal gives.
func FuzzDecodeIngestLine(f *testing.F) {
	for _, line := range ingestLineSeeds() {
		f.Add([]byte(line))
	}
	c := new(jsonread.Cursor)
	f.Fuzz(func(t *testing.T, line []byte) {
		sameLine(t, c, line)
	})
}
