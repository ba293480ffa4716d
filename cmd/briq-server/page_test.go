package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"briq"
	"briq/internal/api"
	"briq/internal/corpus"
)

// singlePages are the bodies of TestPageRoutesByteIdentical: eight tableS
// seed-3 pages, testPage, and a page with no tables.
func singlePages() []string {
	cfg := corpus.TableSConfig(3)
	cfg.Pages = 8
	var pages []string
	for _, pg := range corpus.Generate(cfg).Pages {
		pages = append(pages, pg.HTML())
	}
	return append(pages, testPage, "<p>no tables here, just 42 words</p>")
}

// pageRoutesSHA256 is the SHA-256 of the first answers to singlePages on
// /v1/align and /v1/summarize, taken on a cached server over a fresh store
// before the two routes shared the page path.
const pageRoutesSHA256 = "6b29234781c2f922b6dbc6c27662e33a55237d2222127c1e3022ba7e438a3b83"

// postPages POSTs every page to /v1/align and to /v1/summarize, in that
// order, and returns each answer's status line and body, concatenated.
func postPages(t *testing.T, srv *server, pages []string) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, pg := range pages {
		for _, path := range []string{"/v1/align", "/v1/summarize"} {
			rec := do(t, srv, http.MethodPost, path, pg)
			fmt.Fprintf(&out, "%s %d\n", path, rec.Code)
			out.Write(rec.Body.Bytes())
		}
	}
	return out.Bytes()
}

// TestPageRoutesByteIdentical: /v1/align and /v1/summarize answer every page
// of singlePages with the same bytes on the first POST, on the repeat, after
// a reboot on the same store directory, under a cache too small for most
// document entries, with admission but no cache (WithCache(0),
// WithMaxInFlight(4)), and after a batch that names each page "request"
// recorded its entry first. The page with no tables answers 422 no_tables
// on /v1/align every time.
func TestPageRoutesByteIdentical(t *testing.T) {
	pages := singlePages()
	dir := t.TempDir()
	srv1, st1 := bootStore(t, dir, briq.WithCache(8<<20))
	first := postPages(t, srv1, pages)
	if sum := sha256.Sum256(first); hex.EncodeToString(sum[:]) != pageRoutesSHA256 {
		t.Errorf("first answers SHA-256 = %x, want %s", sum, pageRoutesSHA256)
	}
	if !bytes.Contains(first, []byte(`"sentences": [`)) {
		t.Fatalf("no page was summarized:\n%.2000s", first)
	}
	noTables := fmt.Sprintf("/v1/align %d\n", api.StatusByCode[api.CodeNoTables])
	if !bytes.Contains(first, []byte(noTables)) || !bytes.Contains(first, []byte(`"code": "`+api.CodeNoTables+`"`)) {
		t.Fatalf("the page with no tables did not answer 422 %s:\n%s", api.CodeNoTables, first)
	}
	same := func(label string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, first) {
			t.Errorf("%s differs from the first answers:\n%.2000s\nwant:\n%.2000s", label, got, first)
		}
	}
	same("the repeat", postPages(t, srv1, pages))
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := bootStore(t, dir, briq.WithCache(8<<20))
	same("after a reboot", postPages(t, srv2, pages))
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	srv3, st3 := bootStore(t, dir, briq.WithCache(16*400))
	for round := 0; round < 2; round++ {
		same(fmt.Sprintf("round %d under a small cache", round), postPages(t, srv3, pages))
	}
	if err := st3.Close(); err != nil {
		t.Fatal(err)
	}

	srv4, st4 := bootStore(t, t.TempDir(), briq.WithCache(0), briq.WithMaxInFlight(4))
	for round := 0; round < 2; round++ {
		same(fmt.Sprintf("round %d with admission and no cache", round), postPages(t, srv4, pages))
	}
	if err := st4.Close(); err != nil {
		t.Fatal(err)
	}

	srv5, st5 := bootStore(t, t.TempDir(), briq.WithCache(8<<20))
	defer st5.Close()
	var got []byte
	for _, pg := range pages {
		body, _ := json.Marshal(batchRequest{Pages: []batchPage{{ID: "request", HTML: pg}}})
		if rec := do(t, srv5, http.MethodPost, "/v1/align/batch", string(body)); rec.Code != http.StatusOK {
			t.Fatalf("batch status = %d: %s", rec.Code, rec.Body.String())
		}
		got = append(got, postPages(t, srv5, []string{pg})...)
	}
	same("after a batch page named request", got)
	if !strings.Contains(string(got), noTables) {
		t.Error("after its batch entry, the page with no tables no longer answers 422 no_tables")
	}
}
