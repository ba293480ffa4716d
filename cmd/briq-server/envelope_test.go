package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"briq"
	"briq/internal/api"
	gate "briq/internal/serve"
)

// TestErrorCodeTable locks the stable error-code → HTTP status contract:
// clients branch on error.code, proxies on the status, and neither may move
// independently of the other.
func TestErrorCodeTable(t *testing.T) {
	want := map[string]int{
		api.CodeBadRequest:       400,
		api.CodeMethodNotAllowed: 405,
		api.CodePayloadTooLarge:  413,
		api.CodeNoTables:         422,
		api.CodeNoMentions:       422,
		api.CodeUnprocessable:    422,
		api.CodeBadQuery:         422,
		api.CodeOverloaded:       429,
		api.CodeInternal:         500,
		api.CodeUnavailable:      503,
		api.CodeDeadline:         504,
	}
	if len(api.StatusByCode) != len(want) {
		t.Fatalf("api.StatusByCode has %d codes, want %d — extend this test with the new code", len(api.StatusByCode), len(want))
	}
	for code, status := range want {
		got, ok := api.StatusByCode[code]
		if !ok {
			t.Errorf("code %q missing from api.StatusByCode", code)
			continue
		}
		if got != status {
			t.Errorf("code %q → %d, want %d", code, got, status)
		}
	}
}

// TestWriteErrorEnvelope checks the wire shape of an error response and that
// an unknown code degrades to 500 internal rather than panicking or leaking
// an unregistered code.
func TestWriteErrorEnvelope(t *testing.T) {
	rec := do(t, newTestServer(), http.MethodGet, "/v1/align", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", rec.Code)
	}
	body := rec.Body.String()
	var env api.Envelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatal(err)
	}
	if env.Result != nil {
		t.Errorf("error response result = %v, want null", env.Result)
	}
	if env.Error == nil || env.Error.Code != api.CodeMethodNotAllowed || env.Error.Message == "" {
		t.Errorf("error = %+v, want code %q with a message", env.Error, api.CodeMethodNotAllowed)
	}
	// The raw body must carry both envelope keys, even when one is null.
	for _, key := range []string{`"result"`, `"error"`, `"code"`, `"message"`} {
		if !strings.Contains(body, key) {
			t.Errorf("envelope body missing %s: %s", key, body)
		}
	}
}

func TestWriteErrorUnknownCode(t *testing.T) {
	rec := httptest.NewRecorder()
	api.WriteError(rec, "no_such_code", "boom")
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("unknown code status = %d, want 500", rec.Code)
	}
	var env api.Envelope
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.CodeInternal {
		t.Errorf("unknown code mapped to %+v, want %q", env.Error, api.CodeInternal)
	}
}

// TestEnvelopeSchemaGolden locks the envelope JSON schema for the success and
// error shapes of /align — field names and types, not values. Regenerate
// deliberately with:
//
//	go test ./cmd/briq-server -run TestEnvelopeSchemaGolden -update
func TestEnvelopeSchemaGolden(t *testing.T) {
	srv := newTestServer()

	var lines []string
	renderSchema := func(label, body string) {
		var v any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		schemaLines(label, v, &lines)
	}

	ok := do(t, srv, http.MethodPost, "/v1/align", testPage)
	if ok.Code != 200 {
		t.Fatalf("align status = %d", ok.Code)
	}
	renderSchema("align_ok", ok.Body.String())

	noTables := do(t, srv, http.MethodPost, "/v1/align", "<p>just 42 words, no table</p>")
	if noTables.Code != 422 {
		t.Fatalf("no-tables status = %d", noTables.Code)
	}
	renderSchema("align_error", noTables.Body.String())

	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "envelope_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("envelope schema drifted from golden.\nIf intentional, regenerate with -update.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestOverloadSheds429 is the acceptance check for admission control: with
// every in-flight slot taken and no queue, /align answers 429 overloaded with
// a Retry-After hint — deterministically, because the test itself holds the
// only slot. /v1/summarize, which takes a slot to align the page's
// documents, sheds the same way. Releasing the slot restores 200 service. A
// batch answered from its page entries needs no slot; one with a page to
// align sheds.
func TestOverloadSheds429(t *testing.T) {
	p := briq.New(briq.WithWorkers(1))
	p.Gate = gate.NewEngine(gate.Config{
		Fingerprint: p.Fingerprint(),
		CacheBytes:  1 << 20,
		MaxInFlight: 1,
		MaxQueue:    0, // shed immediately when saturated: no queue to hide in
	})
	srv := newServer(p, serverOptions{})

	release, err := p.Gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	rec := do(t, srv, http.MethodPost, "/v1/align", testPage)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429 (body: %.300s)", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var env api.Envelope
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error == nil || env.Error.Code != api.CodeOverloaded {
		t.Errorf("error = %+v, want code %q", env.Error, api.CodeOverloaded)
	}
	if c := p.Gate.Counters(); c["shed_overloaded"] != 1 {
		t.Errorf("shed_overloaded = %d, want 1", c["shed_overloaded"])
	}
	rec = do(t, srv, http.MethodPost, "/v1/summarize", testPage)
	if rec.Code != http.StatusTooManyRequests || !strings.Contains(rec.Body.String(), `"code": "`+api.CodeOverloaded+`"`) {
		t.Fatalf("saturated /v1/summarize: status = %d, want 429 overloaded (body: %.300s)", rec.Code, rec.Body.String())
	}
	if c := p.Gate.Counters(); c["shed_overloaded"] != 2 {
		t.Errorf("shed_overloaded = %d, want 2", c["shed_overloaded"])
	}

	release()
	if rec := do(t, srv, http.MethodPost, "/v1/align", testPage); rec.Code != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200 (body: %.300s)", rec.Code, rec.Body.String())
	}
	if rec := do(t, srv, http.MethodPost, "/v1/summarize", testPage); rec.Code != http.StatusOK {
		t.Fatalf("post-release /v1/summarize status = %d, want 200 (body: %.300s)", rec.Code, rec.Body.String())
	}

	// The batch path occupies a slot the same way, unless every page of the
	// batch hits its page entry: like a /v1/align hit, that batch is answered
	// without one. Align a batch, saturate again, and check that its repeat
	// answers while a batch with one new page sheds. Ingest lines are the
	// same: a page that misses sheds on its own line, and a byte-identical
	// re-send, which its page entry answers, does not.
	hit, _ := json.Marshal(batchRequest{Pages: []batchPage{{ID: "a", HTML: testPage}}})
	if rec := do(t, srv, http.MethodPost, "/v1/align/batch", string(hit)); rec.Code != http.StatusOK {
		t.Fatalf("unsaturated batch status = %d, want 200 (body: %.300s)", rec.Code, rec.Body.String())
	}
	ingested, _ := json.Marshal(ingestLine{PageID: "ingested", HTML: testPage})
	if r := decodeIngestLines(t, do(t, srv, http.MethodPost, "/v1/ingest", string(ingested)).Body.String()); len(r) != 1 || r[0].Error != "" || r[0].Realigned == 0 {
		t.Fatalf("unsaturated ingest = %+v, want one realigned page", r)
	}
	release2, err := p.Gate.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if rec := do(t, srv, http.MethodPost, "/v1/align/batch", string(hit)); rec.Code != http.StatusOK {
		t.Fatalf("saturated all-hit batch status = %d, want 200 (body: %.300s)", rec.Code, rec.Body.String())
	}
	fresh, _ := json.Marshal(batchRequest{Pages: []batchPage{{ID: "a", HTML: testPage}, {ID: "b", HTML: testPage}}})
	if rec := do(t, srv, http.MethodPost, "/v1/align/batch", string(fresh)); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated batch with a new page: status = %d, want 429", rec.Code)
	}
	if c := p.Gate.Counters(); c["shed_overloaded"] != 3 {
		t.Errorf("shed_overloaded = %d, want 3", c["shed_overloaded"])
	}
	missing, _ := json.Marshal(ingestLine{PageID: "missing", HTML: testPage})
	rec = do(t, srv, http.MethodPost, "/v1/ingest", string(missing)+"\n"+string(ingested))
	if rec.Code != http.StatusOK {
		t.Fatalf("saturated ingest status = %d, want 200 (body: %.300s)", rec.Code, rec.Body.String())
	}
	lines := decodeIngestLines(t, rec.Body.String())
	if len(lines) != 2 || lines[0].PageID != "missing" || lines[0].Code != api.CodeOverloaded {
		t.Fatalf("saturated ingest of a new page = %+v, want its line answered %q", lines, api.CodeOverloaded)
	}
	if r := lines[1]; r.PageID != "ingested" || r.Error != "" || r.Realigned != 0 || r.Reused == 0 {
		t.Errorf("saturated re-send of an ingested page = %+v, want every document reused", r)
	}
	if c := p.Gate.Counters(); c["shed_overloaded"] != 4 {
		t.Errorf("shed_overloaded = %d, want 4", c["shed_overloaded"])
	}
}

// TestServerCacheHitByteIdentical re-POSTs the same page to a cached server:
// the second response must be byte-for-byte the first, and the serving
// counters must show the hits: the page entry and each document's.
func TestServerCacheHitByteIdentical(t *testing.T) {
	srv := newServer(briq.New(briq.WithCache(8<<20), briq.WithWorkers(1)), serverOptions{})

	first := do(t, srv, http.MethodPost, "/v1/align", testPage)
	if first.Code != 200 {
		t.Fatalf("first status = %d", first.Code)
	}
	second := do(t, srv, http.MethodPost, "/v1/align", testPage)
	if second.Code != 200 {
		t.Fatalf("second status = %d", second.Code)
	}
	if first.Body.String() != second.Body.String() {
		t.Errorf("cache hit response differs from fresh response:\nfirst:\n%s\nsecond:\n%s",
			first.Body.String(), second.Body.String())
	}

	// The first POST stored the page entry and its documents' entries; the
	// second read each of them once.
	entries := int64(1 + len(testPageDocs(t, srv)))
	c := srv.pipeline.Gate.Counters()
	if c["hits"] != entries || c["stores"] != entries {
		t.Errorf("serving counters = hits:%d stores:%d, want %d and %d", c["hits"], c["stores"], entries, entries)
	}

	// /metrics surfaces the same counters under the serving section.
	rec := do(t, srv, http.MethodGet, "/v1/metrics", "")
	var m map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	serving, ok := m["serving"].(map[string]any)
	if !ok {
		t.Fatalf("/metrics has no serving section: %v", m)
	}
	if serving["hits"].(float64) != float64(entries) {
		t.Errorf("/metrics serving.hits = %v, want %d", serving["hits"], entries)
	}
}
