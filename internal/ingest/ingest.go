// Package ingest is the streaming corpus-maintenance engine behind
// POST /v1/ingest: pages arrive one at a time (NDJSON lines on the wire),
// each is segmented into documents without their table mentions, every
// document's content identity is checked against the persistent store, and
// only documents whose identity is new — a changed paragraph or table, or a
// genuinely new document — get their table mentions and go through
// classify/filter/resolve. The page is then upserted: stale
// documents of a previous crawl are retracted, unchanged ones reused
// byte-for-byte.
//
// Re-alignment runs a page's misses through runtime.AlignPerDoc, whose unit
// of work is a page, so they align on one goroutine through one
// feature.Tables, under one Ingestor-wide lock, which bounds memory: one
// page's miss set is in flight at a time across all connections. Stage
// latencies go to the pipeline's Recorder. Upserts of the same page are
// serialized on a per-page lock so the store's reuse check and the upsert
// are atomic with respect to each other; distinct pages proceed
// concurrently.
package ingest

import (
	"context"
	"errors"
	"hash/fnv"
	"sync"

	"briq/internal/api"
	"briq/internal/core"
	"briq/internal/document"
	"briq/internal/htmlx"
	"briq/internal/runtime"
	"briq/internal/serve"
	"briq/internal/store"
)

// DocStatus reports how one document of an ingested page was handled.
type DocStatus struct {
	DocID  string `json:"doc_id"`
	Status string `json:"status"` // "reused" | "realigned"
}

// Result is one page's ingestion outcome — one NDJSON response line on the
// wire. Either Error is set (the page was not upserted; the previous crawl,
// if any, stays live) or the counts describe the upsert.
type Result struct {
	PageID        string      `json:"page_id"`
	Documents     []DocStatus `json:"documents,omitempty"`
	Reused        int         `json:"reused"`
	Realigned     int         `json:"realigned"`
	Retracted     int         `json:"retracted"`
	Alignments    int         `json:"alignments"`
	PersistErrors int64       `json:"persist_errors,omitempty"`
	Error         string      `json:"error,omitempty"`
	Code          string      `json:"code,omitempty"` // api error code for Error
}

// Options configure an Ingestor.
type Options struct {
	// Workers is the re-alignment fan-out width; ≤ 0 falls back to the
	// pipeline's Workers, then GOMAXPROCS. runtime.AlignPerDoc fans pages
	// out, and Page aligns one, so it bounds nothing above 1 today.
	Workers int
}

// pageShards is the size of the per-page lock table. Collisions only
// over-serialize two unrelated pages; correctness needs same-page exclusion.
const pageShards = 64

// Ingestor ingests pages into a store, reusing stored alignments for
// unchanged documents. Safe for concurrent use.
type Ingestor struct {
	store   *store.Store
	proto   *core.Pipeline
	workers int
	alignMu sync.Mutex // one page's misses align at a time
	locks   [pageShards]sync.Mutex
}

// New builds an Ingestor over the pipeline's models and the given store.
// Re-alignments record their stage latencies into the pipeline's Recorder.
func New(proto *core.Pipeline, st *store.Store, opts Options) *Ingestor {
	return &Ingestor{store: st, proto: proto, workers: opts.Workers}
}

func (ing *Ingestor) pageLock(pageID string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(pageID))
	return &ing.locks[h.Sum32()%pageShards]
}

// Page ingests one page: segment keys-only, fingerprint-check every
// document, build the table mentions of the misses and re-align them,
// upsert. An error Result (Error != "") means the store was
// not touched for this page. The context cancels mid-alignment.
func (ing *Ingestor) Page(ctx context.Context, pageID, html string) Result {
	res := Result{PageID: pageID}

	mu := ing.pageLock(pageID)
	mu.Lock()
	defer mu.Unlock()

	// Keys-only: a reused document never needs its table mentions, and
	// runtime.AlignPerDoc builds them for the misses.
	seg, err := ing.proto.Segmenter.SegmentPageKeys(pageID, htmlx.ParseString(html))
	if err != nil {
		res.Error, res.Code = err.Error(), api.CodeUnprocessable
		return res
	}
	docs := seg.Docs

	// Fingerprint check: a stored live identity means the whole
	// classify/filter/resolve chain is skipped for that document. The keys
	// go on to UpsertPage, so each document is hashed once per page.
	keys := make([]serve.Key, len(docs))
	als := make([][]core.Alignment, len(docs))
	var missDocs []*document.Document
	var missIdx []int
	for i, d := range docs {
		keys[i] = ing.store.DocumentKey(d)
		if stored, ok := ing.store.Alignments(keys[i]); ok {
			als[i] = nil // reused; UpsertPage keeps the live record
			res.Alignments += len(stored)
			continue
		}
		missDocs = append(missDocs, d)
		missIdx = append(missIdx, i)
	}

	if len(missDocs) > 0 {
		ing.alignMu.Lock()
		fresh, err := runtime.AlignPerDoc(ctx, ing.proto, missDocs, ing.workers)
		ing.alignMu.Unlock()
		if err != nil {
			res.Error, res.Code = err.Error(), alignCode(err)
			return res
		}
		for j, i := range missIdx {
			if fresh[j] == nil {
				fresh[j] = []core.Alignment{}
			}
			als[i] = fresh[j]
			res.Alignments += len(fresh[j])
		}
	}

	up := ing.store.UpsertPage(pageID, docs, keys, als)
	res.Retracted = up.Retracted
	res.PersistErrors = up.PersistErrors
	res.Documents = make([]DocStatus, len(docs))
	for i, d := range docs {
		st := "realigned"
		if up.Reused[i] {
			st = "reused"
			res.Reused++
		} else {
			res.Realigned++
		}
		res.Documents[i] = DocStatus{DocID: d.ID, Status: st}
	}
	return res
}

func alignCode(err error) string {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return api.CodeDeadline
	case errors.Is(err, serve.ErrOverloaded):
		return api.CodeOverloaded
	default:
		return api.CodeUnprocessable
	}
}
