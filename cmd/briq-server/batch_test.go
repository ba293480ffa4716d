package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"briq"
	"briq/internal/core"
	"briq/internal/corpus"
)

// batchEntryPages is the body of the page-entry tests: eight tableS seed-3
// pages under their own IDs, an unnamed page (answered as page8), and a page
// with no tables, whose entry holds no documents.
func batchEntryPages() []batchPage {
	cfg := corpus.TableSConfig(3)
	cfg.Pages = 8
	var pages []batchPage
	for _, pg := range corpus.Generate(cfg).Pages {
		pages = append(pages, batchPage{ID: pg.ID, HTML: pg.HTML()})
	}
	return append(pages,
		batchPage{HTML: testPage},
		batchPage{ID: "plain", HTML: "<p>no tables here, just 42 words</p>"})
}

// batchMissSHA256 is the SHA-256 of the first answer to batchEntryPages on a
// cached server over a fresh store, taken before batch pages had entries:
// the miss path answers as it did then.
const batchMissSHA256 = "d725185a4b0a705c377199d9cb771d682d1162f0596713f25d578cecf8313240"

// postBatch POSTs pages to /v1/align/batch and returns the response body.
func postBatch(t *testing.T, srv *server, pages []batchPage) []byte {
	t.Helper()
	body, err := json.Marshal(batchRequest{Pages: pages})
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, srv, http.MethodPost, "/v1/align/batch", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %.300s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// batchPageBytes splits a batch response into each page's JSON, by page ID.
func batchPageBytes(t *testing.T, body []byte) map[string]string {
	t.Helper()
	var env struct {
		Result struct {
			Pages []json.RawMessage `json:"pages"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, raw := range env.Result.Pages {
		var pg struct{ ID string }
		if err := json.Unmarshal(raw, &pg); err != nil {
			t.Fatal(err)
		}
		out[pg.ID] = string(raw)
	}
	return out
}

// stageCount reads how many times a pipeline stage has run on srv.
func stageCount(srv *server, stage string) int64 {
	return srv.metrics.stages.Stage(stage).Snapshot().Count
}

// TestBatchPageEntriesByteIdentical: one batch body answers the same bytes
// on its first POST (every page a miss), on its second (page entries hit,
// the page with no documents included), after a reboot on the same store
// directory (replayed entries), after a /v1/ingest of one page's ID
// retracted that page's documents, when page entries hit but their
// documents do not (the fallback path, which segments and aligns the page),
// and under a cache too small to hold most document entries. A sub-batch of
// the same pages in another order answers each page as the full batch did.
func TestBatchPageEntriesByteIdentical(t *testing.T) {
	pages := batchEntryPages()
	dir := t.TempDir()

	srv1, st1 := bootStore(t, dir, briq.WithCache(8<<20))
	first := postBatch(t, srv1, pages)
	if sum := sha256.Sum256(first); hex.EncodeToString(sum[:]) != batchMissSHA256 {
		t.Errorf("first answer SHA-256 = %x, want %s", sum, batchMissSHA256)
	}
	if got := st1.Counters()["cache_records"]; got != int64(len(pages)) {
		t.Errorf("cache_records = %d after the first POST, want %d (every page)", got, len(pages))
	}
	perPage := batchPageBytes(t, first)

	// Second POST: no page is parsed.
	segments, classified := stageCount(srv1, core.StageSegment), stageCount(srv1, core.StageClassify)
	if got := postBatch(t, srv1, pages); !bytes.Equal(got, first) {
		t.Errorf("second POST differs from the first:\n%s\nwant:\n%s", got, first)
	}
	if n := stageCount(srv1, core.StageSegment) - segments; n != 0 {
		t.Errorf("second POST segmented %d times, want 0", n)
	}
	if n := stageCount(srv1, core.StageClassify) - classified; n != 0 {
		t.Errorf("second POST classified %d documents, want 0", n)
	}

	// The named pages, reversed and without the edge pages.
	var sub []batchPage
	for i := len(pages) - 3; i >= 0; i-- {
		sub = append(sub, pages[i])
	}
	for id, got := range batchPageBytes(t, postBatch(t, srv1, sub)) {
		if got != perPage[id] {
			t.Errorf("page %s in a reordered sub-batch:\n%s\nwant:\n%s", id, got, perPage[id])
		}
	}

	// Re-crawling the first page's ID with other content retracts its
	// documents from the store; its batch entry still answers the same.
	line, _ := json.Marshal(ingestLine{PageID: pages[0].ID, HTML: pages[1].HTML})
	if rec := do(t, srv1, http.MethodPost, "/v1/ingest", string(line)); rec.Code != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", rec.Code, rec.Body.String())
	}
	if got := st1.Counters()["retracted_documents"]; got == 0 {
		t.Fatal("the re-crawl retracted nothing")
	}
	if got := postBatch(t, srv1, pages); !bytes.Equal(got, first) {
		t.Errorf("POST after the re-crawl differs from the first:\n%s\nwant:\n%s", got, first)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot: the replayed entries answer every page.
	srv2, st2 := bootStore(t, dir, briq.WithCache(8<<20))
	if got := postBatch(t, srv2, pages); !bytes.Equal(got, first) {
		t.Errorf("POST after reboot differs from the first:\n%s\nwant:\n%s", got, first)
	}
	if n := stageCount(srv2, core.StageSegment); n != 0 {
		t.Errorf("POST after reboot segmented %d times, want 0", n)
	}
	if c := srv2.pipeline.Gate.Counters(); c["misses"] != 0 {
		t.Errorf("POST after reboot: serving misses = %d, want 0", c["misses"])
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot on the page records alone: every entry hits, none of its
	// documents does, and every page with documents falls back to segmenting
	// and aligning. The page with no documents is answered by its entry.
	entriesOnly := t.TempDir()
	copyPageRecords(t, dir, entriesOnly)
	srv3, st3 := bootStore(t, entriesOnly, briq.WithCache(8<<20))
	if got := postBatch(t, srv3, pages); !bytes.Equal(got, first) {
		t.Errorf("POST on page records alone differs from the first:\n%s\nwant:\n%s", got, first)
	}
	if c := srv3.pipeline.Gate.Counters(); c["hits"] != int64(len(pages)) {
		t.Errorf("POST on page records alone: serving hits = %d, want %d (the page entries)", c["hits"], len(pages))
	}
	// One observation per page segmented, and one for building the table
	// mentions of the batch's missing documents.
	if n := stageCount(srv3, core.StageSegment); n != int64(len(pages)-1)+1 {
		t.Errorf("POST on page records alone: %d segment observations, want %d (%d pages, then the build)", n, len(pages), len(pages)-1)
	}
	if err := st3.Close(); err != nil {
		t.Fatal(err)
	}

	// Reboot under a cache too small for most document entries.
	srv4, st4 := bootStore(t, dir, briq.WithCache(16*400))
	defer st4.Close()
	for round := 0; round < 2; round++ {
		if got := postBatch(t, srv4, pages); !bytes.Equal(got, first) {
			t.Errorf("POST %d under a small cache differs from the first:\n%s\nwant:\n%s", round, got, first)
		}
	}
	if stageCount(srv4, core.StageClassify) == 0 {
		t.Error("small cache: no document was aligned again")
	}
}

// copyPageRecords makes dst a store holding only src's "cache" records.
func copyPageRecords(t *testing.T, src, dst string) {
	t.Helper()
	meta, err := os.ReadFile(filepath.Join(src, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(src, "corpus.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	var kept []byte
	for _, line := range bytes.SplitAfter(log, []byte("\n")) {
		var r struct{ Kind string }
		if json.Unmarshal(line, &r) == nil && r.Kind == "cache" {
			kept = append(kept, line...)
		}
	}
	if err := os.WriteFile(filepath.Join(dst, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "corpus.ndjson"), kept, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGatelessBatchStoresFingerprintKeys: a server with no gate (-cache-bytes
// 0 and no -max-inflight) over a store answers the batch as a cached one
// does and files its documents under the pipeline's fingerprint, so a
// reboot with a cache serves every document from the replayed entries. It
// records no page entries: without a gate there is no page key.
func TestGatelessBatchStoresFingerprintKeys(t *testing.T) {
	pages := batchEntryPages()
	dir := t.TempDir()
	srv1, st1 := bootStore(t, dir)
	if srv1.pipeline.Gate != nil {
		t.Fatal("bootStore without options built a gate")
	}
	first := postBatch(t, srv1, pages)
	if sum := sha256.Sum256(first); hex.EncodeToString(sum[:]) != batchMissSHA256 {
		t.Errorf("gate-less answer SHA-256 = %x, want %s", sum, batchMissSHA256)
	}
	if c := st1.Counters(); c["documents"] == 0 || c["cache_records"] != 0 {
		t.Errorf("store counters = %v, want documents and no cache records", c)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := bootStore(t, dir, briq.WithCache(8<<20))
	defer st2.Close()
	if got := postBatch(t, srv2, pages); !bytes.Equal(got, first) {
		t.Errorf("POST after a cached reboot differs:\n%s\nwant:\n%s", got, first)
	}
	if n := stageCount(srv2, core.StageClassify); n != 0 {
		t.Errorf("cached reboot classified %d documents, want 0 (every document replayed)", n)
	}
	if c := srv2.pipeline.Gate.Counters(); c["misses"] != int64(len(pages)) {
		t.Errorf("cached reboot: serving misses = %d, want %d (one page lookup each)", c["misses"], len(pages))
	}
}
