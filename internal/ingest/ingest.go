// Package ingest is the streaming corpus-maintenance engine behind
// POST /v1/ingest: pages arrive one at a time (NDJSON lines on the wire),
// and each is upserted into the persistent store, paying only for what
// changed since its last crawl. A page whose entry (under serve.PageKeyOf,
// as on every page route) names exactly its live documents is answered
// from the store without being parsed (store.ReusePage). Any other page is
// segmented keys-only; its documents not live in the store align through
// the miss path the alignment routes share (runtime.AlignMisses, under one
// admission slot); it is upserted, stale documents retracted and unchanged
// ones reused byte-for-byte; and its entry is recorded in the gate and the
// store's log, so a restart warms it. Without a gate there is no page key.
//
// Upserts of the same page are serialized on a per-page lock so the store's
// reuse check and the upsert are atomic with respect to each other; distinct
// pages proceed concurrently.
package ingest

import (
	"context"
	"errors"
	"hash/fnv"
	"strconv"
	"sync"
	"time"

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
	// Workers is ignored: a page aligns on one goroutine, and the gate's
	// admission bounds how many align at once. bench/ still sets it.
	Workers int
}

// pageShards is the size of the per-page lock table. Collisions only
// over-serialize two unrelated pages; correctness needs same-page exclusion.
const pageShards = 64

// Ingestor ingests pages into a store, reusing stored alignments for
// unchanged documents. Safe for concurrent use.
type Ingestor struct {
	store *store.Store
	proto *core.Pipeline
	locks [pageShards]sync.Mutex
}

// New builds an Ingestor over the pipeline (its models, gate and Recorder)
// and the given store.
func New(proto *core.Pipeline, st *store.Store, _ Options) *Ingestor {
	return &Ingestor{store: st, proto: proto}
}

func (ing *Ingestor) pageLock(pageID string) *sync.Mutex {
	h := fnv.New32a()
	h.Write([]byte(pageID))
	return &ing.locks[h.Sum32()%pageShards]
}

// Page ingests one page. An error Result (Error != "") means the store was
// not touched for this page. The context cancels admission and alignment.
func (ing *Ingestor) Page(ctx context.Context, pageID, html string) Result {
	gate := ing.proto.Gate
	key := gate.PageKey(pageID, html)
	if v, ok := gate.Lookup(key); ok {
		if up, n, ok := ing.store.ReusePage(pageID, v.([]serve.Key)); ok {
			return result(pageID, n, up)
		}
	}

	mu := ing.pageLock(pageID)
	mu.Lock()
	defer mu.Unlock()

	start := time.Now()
	seg, err := ing.proto.Segmenter.SegmentPageKeys(pageID, htmlx.ParseString(html))
	ing.proto.Recorder.Observe(core.StageSegment, time.Since(start))
	if err != nil {
		return Result{PageID: pageID, Error: err.Error(), Code: api.CodeUnprocessable}
	}
	docs := seg.Docs

	// A live identity skips classify/filter/resolve for that document. Each
	// document is hashed once, for this check, UpsertPage and the entry.
	keys := make([]serve.Key, len(docs))
	als := make([][]core.Alignment, len(docs)) // nil: reused, UpsertPage keeps the live record
	alignments := 0
	var missDocs []*document.Document
	var missIdx []int
	for i, d := range docs {
		keys[i] = ing.store.DocumentKey(d)
		if stored, ok := ing.store.Alignments(keys[i]); ok {
			alignments += len(stored)
			continue
		}
		missDocs = append(missDocs, d)
		missIdx = append(missIdx, i)
	}
	if len(missDocs) > 0 {
		fresh, err := runtime.AlignMisses(ctx, ing.proto, missDocs, true)
		if err != nil {
			return Result{PageID: pageID, Error: err.Error(), Code: alignCode(err)}
		}
		for j, i := range missIdx {
			if fresh[j] == nil {
				fresh[j] = []core.Alignment{}
			}
			als[i] = fresh[j]
			alignments += len(fresh[j])
		}
	}

	up := ing.store.UpsertPage(pageID, docs, keys, als)
	if gate != nil {
		gate.Store(key, keys, core.PageDocsSize(keys))
		ing.store.AddPage(key, keys)
	}
	return result(pageID, alignments, up)
}

// result is the Result of an upsert of pageID whose documents hold
// alignments alignments. The i-th document is named <page>-d<i>, as
// document.Segmenter names it, so a page answered from its entry reports
// what segmenting it reports.
func result(pageID string, alignments int, up store.PageUpsert) Result {
	res := Result{PageID: pageID, Documents: make([]DocStatus, len(up.Reused)), Retracted: up.Retracted,
		Alignments: alignments, PersistErrors: up.PersistErrors}
	for i, reused := range up.Reused {
		st := "realigned"
		if reused {
			st = "reused"
			res.Reused++
		} else {
			res.Realigned++
		}
		res.Documents[i] = DocStatus{DocID: pageID + "-d" + strconv.Itoa(i), Status: st}
	}
	return res
}

func alignCode(err error) string {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, serve.ErrDeadlineBudget):
		return api.CodeDeadline
	case errors.Is(err, serve.ErrOverloaded):
		return api.CodeOverloaded
	default:
		return api.CodeUnprocessable
	}
}
