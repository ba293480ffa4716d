package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"briq"
	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/store"
)

// bootStore builds a server over a persistent store in dir, from a pipeline
// configured by opts.
func bootStore(t *testing.T, dir string, opts ...briq.Option) (*server, *store.Store) {
	t.Helper()
	p := briq.New(append([]briq.Option{briq.WithWorkers(1)}, opts...)...)
	st, err := store.Open(store.Options{Dir: dir, Fingerprint: p.Fingerprint(), Gate: p.Gate})
	if err != nil {
		t.Fatal(err)
	}
	return newServer(p, serverOptions{store: st}), st
}

// ndjsonBody renders pages as a POST /v1/ingest body.
func ndjsonBody(pages []*corpus.Page) string {
	var lines []string
	for _, pg := range pages {
		line, _ := json.Marshal(ingestLine{PageID: pg.ID, HTML: pg.HTML()})
		lines = append(lines, string(line))
	}
	return strings.Join(lines, "\n")
}

// TestStoreLogGolden pins what the aligned-corpus store writes and counts
// across every write path of a cached server: single-page align (a repeat
// included), a batch whose page named "request" is answered from the entry
// /v1/align recorded for the same HTML, streaming ingest and a one-sentence
// re-crawl, then a reboot on the same directory and a re-POST of
// everything. The golden holds the store and serving counters after each
// phase (the serving counters count each page entry and each document entry
// looked up or stored), the SHA-256 of the final log, and one "kind key"
// line per log record. Regenerate deliberately with:
//
//	go test ./cmd/briq-server -run TestStoreLogGolden -update
//
// which also rewrites the log itself as internal/store's
// testdata/store_log.ndjson, the seed of FuzzReplayLog and the input of
// TestReplayTruncatedLog.
func TestStoreLogGolden(t *testing.T) {
	dir := t.TempDir()
	cfg := corpus.TableSConfig(71)
	cfg.Pages = 4
	pages := corpus.Generate(cfg).Pages
	pageB := pages[0].HTML()
	batch, _ := json.Marshal(batchRequest{Pages: []batchPage{
		{ID: "request", HTML: testPage}, // the page entry /v1/align already recorded
		{ID: "fresh", HTML: pages[1].HTML()},
	}})
	crawl := pages[2:]

	var out strings.Builder
	post := func(srv *server, path, body string) {
		t.Helper()
		rec := do(t, srv, http.MethodPost, path, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d: %s", path, rec.Code, rec.Body.String())
		}
		if strings.Contains(rec.Body.String(), `"error":"`) {
			t.Fatalf("POST %s: page error: %s", path, rec.Body.String())
		}
		fmt.Fprintf(&out, "POST %s %d\n", path, rec.Code)
	}
	phase := func(name string, srv *server, st *store.Store) {
		fmt.Fprintf(&out, "== %s\n", name)
		for _, section := range []struct {
			name     string
			counters map[string]int64
		}{
			{"store", st.Counters()},
			{"serving", srv.pipeline.Gate.Counters()},
		} {
			names := make([]string, 0, len(section.counters))
			for n := range section.counters {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(&out, "%s.%s %d\n", section.name, n, section.counters[n])
			}
		}
	}

	srv1, st1 := bootStore(t, dir, briq.WithCache(8<<20))
	phase("boot", srv1, st1)
	post(srv1, "/v1/align", testPage)
	post(srv1, "/v1/align", pageB)
	post(srv1, "/v1/align", testPage)
	phase("align", srv1, st1)
	post(srv1, "/v1/align/batch", string(batch))
	phase("batch", srv1, st1)
	post(srv1, "/v1/ingest", ndjsonBody(crawl))
	phase("ingest", srv1, st1)
	for _, pg := range crawl {
		pg.Paras[0] += " Meanwhile, 8 further observations were recorded."
	}
	post(srv1, "/v1/ingest", ndjsonBody(crawl))
	phase("recrawl", srv1, st1)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := bootStore(t, dir, briq.WithCache(8<<20))
	defer st2.Close()
	phase("reboot", srv2, st2)
	post(srv2, "/v1/align", testPage)
	post(srv2, "/v1/align", pageB)
	post(srv2, "/v1/align/batch", string(batch))
	post(srv2, "/v1/ingest", ndjsonBody(crawl))
	phase("repost", srv2, st2)

	log, err := os.ReadFile(filepath.Join(dir, "corpus.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "== log sha256 %x\n", sha256.Sum256(log))
	sc := bufio.NewScanner(bytes.NewReader(log))
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		var r struct{ Kind, Key string }
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("undecodable log line: %v", err)
		}
		if r.Key == "" {
			r.Key = "-"
		}
		fmt.Fprintf(&out, "%s %s\n", r.Kind, r.Key)
	}

	got := out.String()
	golden := filepath.Join("testdata", "store_log.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("..", "..", "internal", "store", "testdata", "store_log.ndjson"), log, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("store log drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCachelessGateWritesPageRecord: a gate with admission control but no
// cache still records each aligned page, so a later boot with a cache serves
// the first re-POST of that page from the warm cache: the page entry and
// each of its documents' entries hit.
func TestCachelessGateWritesPageRecord(t *testing.T) {
	dir := t.TempDir()
	srv1, st1 := bootStore(t, dir, briq.WithMaxInFlight(4))
	if rec := do(t, srv1, http.MethodPost, "/v1/align", testPage); rec.Code != http.StatusOK {
		t.Fatalf("align status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := st1.Counters()["cache_records"]; got != 1 {
		t.Errorf("cache_records = %d after one aligned page, want 1", got)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := bootStore(t, dir, briq.WithCache(8<<20))
	defer st2.Close()
	if rec := do(t, srv2, http.MethodPost, "/v1/align", testPage); rec.Code != http.StatusOK {
		t.Fatalf("re-align status = %d: %s", rec.Code, rec.Body.String())
	}
	entries := int64(1 + len(testPageDocs(t, srv2)))
	if c := srv2.pipeline.Gate.Counters(); c["hits"] != entries || c["misses"] != 0 {
		t.Errorf("first re-POST after reboot: hits=%d misses=%d, want %d warm hits", c["hits"], c["misses"], entries)
	}
}

// TestLegacyStoreKeepsAnswering boots a server on internal/store's
// testdata/store_log_legacy.ndjson, the log TestStoreLogGolden wrote before
// every page entry held document keys: its "cache" records carry a
// /v1/align page's alignments or a batch page's document keys. Under the
// untrained pipeline's fingerprint, which wrote it, no line is skipped,
// every document and every batch page entry is warm — the /v1/align
// records, filed under a key no request derives, are passed over — and
// /v1/align of testPage, POSTed twice, answers what a fresh server answers
// without classifying anything.
func TestLegacyStoreKeepsAnswering(t *testing.T) {
	log, err := os.ReadFile(filepath.Join("..", "..", "internal", "store", "testdata", "store_log_legacy.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int64{}
	for _, line := range bytes.Split(bytes.TrimSuffix(log, []byte("\n")), []byte("\n")) {
		var r struct {
			Kind       string
			Alignments []json.RawMessage
		}
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		if r.Kind == "cache" && len(r.Alignments) > 0 {
			r.Kind = "cache with alignments"
		}
		kinds[r.Kind]++
	}
	dir := t.TempDir()
	meta := fmt.Sprintf(`{"version": 3, "fingerprint": %q}`, briq.New().Fingerprint())
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corpus.ndjson"), log, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, st := bootStore(t, dir, briq.WithCache(8<<20))
	defer st.Close()
	c := st.Counters()
	if c["replay_skipped"] != 0 || c["warm_documents"] != kinds["doc"] || c["warm_cache_records"] != kinds["cache"] {
		t.Errorf("replay = %v; want nothing skipped, %d warm documents and %d warm cache records", c, kinds["doc"], kinds["cache"])
	}
	if kinds["cache"] != 2 || kinds["cache with alignments"] != 2 {
		t.Errorf("fixture has %v; want 2 cache records with alignments and 2 without", kinds)
	}
	t.Logf("%d warm documents, %d warm cache records, %d lines skipped", c["warm_documents"], c["warm_cache_records"], c["replay_skipped"])
	want := do(t, newTestServer(), http.MethodPost, "/v1/align", testPage)
	for round := 0; round < 2; round++ {
		got := do(t, srv, http.MethodPost, "/v1/align", testPage)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("POST %d answered %d %s\nwant %d %s", round, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	}
	if n := stageCount(srv, core.StageClassify); n != 0 {
		t.Errorf("classified %d documents, want 0: every document of testPage is warm", n)
	}
}
