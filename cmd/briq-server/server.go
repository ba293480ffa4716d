package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"briq"
	"briq/internal/api"
	"briq/internal/core"
	"briq/internal/document"
	"briq/internal/facts"
	"briq/internal/htmlx"
	"briq/internal/ingest"
	"briq/internal/qkb"
	"briq/internal/quantsearch"
	"briq/internal/store"
	"briq/internal/summarize"
)

// maxBody caps request bodies at 8 MiB — generous for web pages.
const maxBody = 8 << 20

// maxBatchPages caps one /align/batch request; larger workloads should shard
// across requests so a single call cannot monopolize the worker pool.
const maxBatchPages = 256

// The error-code table, the envelope shape, and the route list all live in
// internal/api now — shared verbatim with briq-gateway and package client.
// These aliases keep the server's handlers and tests reading in local terms.
const (
	codeBadRequest       = api.CodeBadRequest
	codeMethodNotAllowed = api.CodeMethodNotAllowed
	codePayloadTooLarge  = api.CodePayloadTooLarge
	codeNoTables         = api.CodeNoTables
	codeNoMentions       = api.CodeNoMentions
	codeUnprocessable    = api.CodeUnprocessable
	codeBadQuery         = api.CodeBadQuery
	codeOverloaded       = api.CodeOverloaded
	codeInternal         = api.CodeInternal
	codeUnavailable      = api.CodeUnavailable
	codeDeadline         = api.CodeDeadline
)

var errorStatus = api.StatusByCode

type (
	envelope = api.Envelope
	apiError = api.Error
)

// serverOptions configure the HTTP layer around the pipeline.
type serverOptions struct {
	workers        int           // AlignAll fan-out width (≤0 = GOMAXPROCS)
	requestTimeout time.Duration // per-request context deadline (0 = none)
	enablePprof    bool
	logger         *log.Logger  // nil silences request logging
	store          *store.Store // nil builds a memory-only store
}

type server struct {
	pipeline *briq.Pipeline
	metrics  *metrics
	store    *store.Store
	ingestor *ingest.Ingestor
	opts     serverOptions
}

// newServer wires a pipeline into the HTTP layer. The pipeline's Recorder is
// pointed at the server's metrics, its Workers at the configured fan-out,
// and its Sink at the aligned-corpus store (a memory-only one when main
// didn't open a persistent directory — /v1/search and /v1/facts work either
// way) before any request runs; after that the pipeline is shared read-only
// across handler goroutines.
func newServer(pipeline *briq.Pipeline, opts serverOptions) *server {
	if opts.logger == nil {
		opts.logger = log.New(io.Discard, "", 0)
	}
	m := newMetrics()
	pipeline.Recorder = m.stages
	if opts.workers > 0 {
		pipeline.Workers = opts.workers
	}
	st := opts.store
	if st == nil {
		var err error
		st, err = store.Open(store.Options{
			Fingerprint: pipeline.Fingerprint(),
			Gate:        pipeline.Gate,
			Logf:        opts.logger.Printf,
		})
		if err != nil {
			// Memory-only Open cannot fail today; guard the invariant anyway.
			panic("open memory store: " + err.Error())
		}
	}
	pipeline.Sink = st
	for _, warn := range pipeline.ConfigWarnings {
		opts.logger.Printf("config: %s", warn)
	}
	ing := ingest.New(pipeline, st, ingest.Options{Workers: opts.workers})
	return &server{pipeline: pipeline, metrics: m, store: st, ingestor: ing, opts: opts}
}

// routes builds the full handler tree from the shared route table: every
// endpoint wrapped in the logging/recovery/metrics middleware, served under
// /v1 with the legacy unversioned path kept as a deprecated alias.
func (s *server) routes() http.Handler {
	handlers := map[string]http.HandlerFunc{
		"align":       s.handleAlign,
		"align_batch": s.handleAlignBatch,
		"ingest":      s.handleIngest,
		"summarize":   s.handleSummarize,
		"search":      s.handleSearch,
		"facts":       s.handleFacts,
		"metrics":     s.handleMetrics,
		"healthz":     s.handleHealthz,
	}
	mux := http.NewServeMux()
	for _, r := range api.Surface() {
		h, ok := handlers[r.Name]
		if !ok {
			panic("no handler for route " + r.Name)
		}
		api.Mount(mux, r, s.instrument(r.Name, h))
	}
	if s.opts.enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// statusWriter captures the response status for logging and error counting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController — the
// streaming ingest handler needs Flush and EnableFullDuplex through the
// middleware wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler with the production middleware: request
// counting, per-request context deadline, panic recovery (500 + counter, the
// process survives), status-class error counters, endpoint latency, and an
// access log line.
func (s *server) instrument(name string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.requests.Inc(name)
		s.metrics.requests.Inc("total")

		ctx := r.Context()
		if s.opts.requestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.opts.requestTimeout)
			defer cancel()
		}

		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				s.metrics.errors.Inc("panics")
				if sw.status == 0 {
					writeError(sw, codeInternal, "internal server error")
				}
				s.opts.logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			}
			switch {
			case sw.status >= 500:
				s.metrics.errors.Inc("http_5xx")
			case sw.status >= 400:
				s.metrics.errors.Inc("http_4xx")
			}
			s.metrics.handlers.Observe(name, time.Since(start))
			s.opts.logger.Printf("%s %s %d %v", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond))
		}()

		h(sw, r.WithContext(ctx))
	})
}

// readPage reads and validates a raw-HTML request body. It reports the
// failure itself and returns ok=false when the request is unusable.
func (s *server) readPage(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		writeError(w, codeMethodNotAllowed, "POST an HTML page body")
		return "", false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		writeError(w, codeBadRequest, fmt.Sprintf("read body: %v", err))
		return "", false
	}
	if len(body) == 0 {
		writeError(w, codeBadRequest, "empty body")
		return "", false
	}
	if !utf8.Valid(body) {
		writeError(w, codeBadRequest, "body is not valid UTF-8 text")
		return "", false
	}
	return string(body), true
}

func (s *server) handleAlign(w http.ResponseWriter, r *http.Request) {
	src, ok := s.readPage(w, r)
	if !ok {
		return
	}
	if deadlineExceeded(w, r.Context()) {
		return
	}
	alignments, err := briq.AlignHTMLContext(r.Context(), s.pipeline, "request", src)
	if err != nil {
		if !deadlineExceeded(w, r.Context()) {
			writeAlignError(w, err)
		}
		return
	}
	writeResult(w, map[string]any{"alignments": alignments})
}

// batchRequest is the POST /align/batch body.
type batchRequest struct {
	Pages []batchPage `json:"pages"`
}

type batchPage struct {
	ID   string `json:"id"` // optional; defaults to page<index>
	HTML string `json:"html"`
}

type batchPageResult struct {
	ID         string           `json:"id"`
	Documents  int              `json:"documents"`
	Alignments []briq.Alignment `json:"alignments"`
}

// handleAlignBatch aligns many pages in one request: each page is segmented,
// then all documents go through the facade's corpus path — fanning out over a
// pool of pipeline clones, consulting the serving layer's per-document result
// cache when one is configured, and occupying one admission slot for the
// whole corpus. The request context cancels the run mid-corpus, and stage
// observations merge into the server metrics when the run ends.
func (s *server) handleAlignBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, codeMethodNotAllowed, `POST JSON {"pages": [{"id": ..., "html": ...}]}`)
		return
	}
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(&req); err != nil {
		writeError(w, codeBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	if len(req.Pages) == 0 {
		writeError(w, codeBadRequest, "no pages in request")
		return
	}
	if len(req.Pages) > maxBatchPages {
		writeError(w, codePayloadTooLarge, fmt.Sprintf("too many pages: %d > %d", len(req.Pages), maxBatchPages))
		return
	}

	seg := s.pipeline.Segmenter
	if seg == nil {
		seg = document.NewSegmenter()
	}

	results := make([]batchPageResult, len(req.Pages))
	var docs []*document.Document
	docPage := make(map[string]int) // document ID → page index
	seenID := make(map[string]int)
	for i, pg := range req.Pages {
		if deadlineExceeded(w, r.Context()) {
			return
		}
		id := pg.ID
		if id == "" {
			id = fmt.Sprintf("page%d", i)
		}
		if prev, dup := seenID[id]; dup {
			writeError(w, codeBadRequest, fmt.Sprintf("duplicate page id %q (pages %d and %d)", id, prev, i))
			return
		}
		seenID[id] = i
		results[i] = batchPageResult{ID: id, Alignments: []briq.Alignment{}}
		if pg.HTML == "" {
			writeError(w, codeBadRequest, fmt.Sprintf("page %q: empty html", id))
			return
		}
		if !utf8.ValidString(pg.HTML) {
			writeError(w, codeBadRequest, fmt.Sprintf("page %q: html is not valid UTF-8", id))
			return
		}

		segStart := time.Now()
		pdocs, err := seg.SegmentPage(id, htmlx.ParseString(pg.HTML))
		s.metrics.stages.Observe(core.StageSegment, time.Since(segStart))
		if err != nil {
			writeError(w, codeUnprocessable, fmt.Sprintf("page %q: %v", id, err))
			return
		}
		results[i].Documents = len(pdocs)
		for _, doc := range pdocs {
			docPage[doc.ID] = i
		}
		docs = append(docs, pdocs...)
	}
	if deadlineExceeded(w, r.Context()) {
		return
	}

	aligned, err := briq.AlignCorpus(r.Context(), s.pipeline, docs)
	if err != nil {
		if !deadlineExceeded(w, r.Context()) {
			writeAlignError(w, err)
		}
		return
	}
	for _, a := range aligned {
		i, ok := docPage[a.DocID]
		if !ok {
			continue
		}
		results[i].Alignments = append(results[i].Alignments, a)
	}

	s.metrics.batch.Add("pages", int64(len(req.Pages)))
	s.metrics.batch.Add("documents", int64(len(docs)))
	s.metrics.batch.Add("alignments", int64(len(aligned)))
	writeResult(w, map[string]any{
		"pages":      results,
		"documents":  len(docs),
		"alignments": len(aligned),
	})
}

func (s *server) handleSummarize(w http.ResponseWriter, r *http.Request) {
	src, ok := s.readPage(w, r)
	if !ok {
		return
	}
	page := htmlx.ParseString(src)
	seg := s.pipeline.Segmenter
	if seg == nil {
		seg = document.NewSegmenter()
	}
	docs, err := seg.SegmentPage("request", page)
	if err != nil {
		writeError(w, codeUnprocessable, err.Error())
		return
	}
	summarizer := summarize.New(s.pipeline)
	type docSummary struct {
		DocID     string   `json:"doc_id"`
		Sentences []string `json:"sentences"`
	}
	var out []docSummary
	for _, doc := range docs {
		sum := summarizer.Summarize(doc)
		ds := docSummary{DocID: doc.ID}
		for _, sent := range sum.Sentences {
			ds.Sentences = append(ds.Sentences, sent.Text)
		}
		out = append(out, ds)
	}
	writeResult(w, map[string]any{"summaries": out})
}

// parseSearchQuery interprets the /search query string: either one `q`
// natural-language parameter, or the structured op/value/value2/unit/keywords
// form — never both. Every interpretation failure wraps
// quantsearch.ErrBadQuery so the handler maps it to 422 bad_query.
func parseSearchQuery(vals url.Values) (quantsearch.Query, error) {
	nl := strings.TrimSpace(vals.Get("q"))
	structured := vals.Get("op") != "" || vals.Get("value") != "" ||
		vals.Get("value2") != "" || vals.Get("unit") != "" || vals.Get("keywords") != ""
	switch {
	case nl != "" && structured:
		return quantsearch.Query{}, fmt.Errorf("%w: pass either q or structured parameters, not both", quantsearch.ErrBadQuery)
	case nl != "":
		return quantsearch.ParseQuery(nl)
	case !structured:
		return quantsearch.Query{}, fmt.Errorf("%w: missing query (q or value)", quantsearch.ErrBadQuery)
	}

	var q quantsearch.Query
	var err error
	if q.Op, err = quantsearch.ParseComparison(vals.Get("op")); err != nil {
		return quantsearch.Query{}, err
	}
	if vals.Get("value") == "" {
		return quantsearch.Query{}, quantsearch.ErrNoValue
	}
	if q.Value, err = strconv.ParseFloat(vals.Get("value"), 64); err != nil {
		return quantsearch.Query{}, fmt.Errorf("%w: bad value %q", quantsearch.ErrBadQuery, vals.Get("value"))
	}
	if v2 := vals.Get("value2"); v2 != "" {
		if q.Op != quantsearch.Between {
			return quantsearch.Query{}, fmt.Errorf("%w: value2 only applies to op=between", quantsearch.ErrBadQuery)
		}
		if q.Value2, err = strconv.ParseFloat(v2, 64); err != nil {
			return quantsearch.Query{}, fmt.Errorf("%w: bad value2 %q", quantsearch.ErrBadQuery, v2)
		}
		if q.Value2 < q.Value {
			q.Value, q.Value2 = q.Value2, q.Value
		}
	} else if q.Op == quantsearch.Between {
		return quantsearch.Query{}, fmt.Errorf("%w: op=between needs value2", quantsearch.ErrBadQuery)
	}
	if raw := vals.Get("unit"); raw != "" {
		u, _ := qkb.Default().NormalizeUnitSpelling(raw)
		if u == "" {
			return quantsearch.Query{}, fmt.Errorf("%w: unknown unit %q", quantsearch.ErrBadQuery, raw)
		}
		q.Unit = u
	}
	for _, kw := range strings.FieldsFunc(vals.Get("keywords"), func(r rune) bool { return r == ',' || r == ' ' }) {
		q.Keywords = append(q.Keywords, strings.ToLower(kw))
	}
	return q, nil
}

// parsePage reads the shared cursor/limit pagination parameters. The cursor is
// the opaque decimal offset minted by api.Page; anything else is a bad query.
func parsePage(vals url.Values) (offset, limit int, err error) {
	if c := vals.Get("cursor"); c != "" {
		offset, err = strconv.Atoi(c)
		if err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("%w: bad cursor %q", quantsearch.ErrBadQuery, c)
		}
	}
	if l := vals.Get("limit"); l != "" {
		limit, err = strconv.Atoi(l)
		if err != nil || limit < 1 {
			return 0, 0, fmt.Errorf("%w: bad limit %q (want a positive integer)", quantsearch.ErrBadQuery, l)
		}
	}
	return offset, limit, nil
}

// handleSearch answers GET /v1/search: a quantity query (value range + unit +
// context keywords) against the store's incremental index, deterministically
// ranked, in the shared paginated envelope.
func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, codeMethodNotAllowed, "GET with query parameters")
		return
	}
	vals := r.URL.Query()
	q, err := parseSearchQuery(vals)
	if err != nil {
		writeError(w, codeBadQuery, err.Error())
		return
	}
	offset, limit, err := parsePage(vals)
	if err != nil {
		writeError(w, codeBadQuery, err.Error())
		return
	}
	items, next := api.Page(s.store.Search(q), offset, limit)
	writeResult(w, api.Paginated{Items: items, NextCursor: next})
}

// handleFacts answers GET /v1/facts: the aligned quantities known for one
// entity (canonicalized the same way the facts view keys them), confidence
// descending, in the shared paginated envelope.
func (s *server) handleFacts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, codeMethodNotAllowed, "GET with an entity parameter")
		return
	}
	vals := r.URL.Query()
	entity := facts.CanonicalEntity(vals.Get("entity"))
	if entity == "" {
		writeError(w, codeBadQuery, "missing entity parameter")
		return
	}
	offset, limit, err := parsePage(vals)
	if err != nil {
		writeError(w, codeBadQuery, err.Error())
		return
	}
	items, next := api.Page(s.store.FactsFor(entity), offset, limit)
	writeResult(w, api.Paginated{Items: items, NextCursor: next})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, codeMethodNotAllowed, "GET only")
		return
	}
	snap := s.metrics.snapshot(s.ingestor)
	snap["serving"] = s.pipeline.Gate.Counters() // nil-safe: full zeroed schema without a gate
	snap["store"] = s.store.Counters()           // nil-safe: full zeroed schema without a store
	snap["model"] = map[string]string{"fingerprint": s.pipeline.Fingerprint()}
	writeJSON(w, http.StatusOK, snap)
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

// writeResult answers 200 with the success half of the envelope.
func writeResult(w http.ResponseWriter, v any) { api.WriteResult(w, v) }

// writeError answers with the error half of the envelope; the HTTP status
// comes from the error-code table. An overloaded response carries a
// Retry-After hint, the contract clients' backoff loops key on.
func writeError(w http.ResponseWriter, code, message string) { api.WriteError(w, code, message) }

// writeAlignError maps the facade's typed error taxonomy onto the stable
// error-code table: errors.Is against each sentinel, with a generic 422 for
// anything untyped (the page parsed but could not be aligned).
func writeAlignError(w http.ResponseWriter, err error) {
	writeError(w, alignErrorCode(err), err.Error())
}

func alignErrorCode(err error) string {
	switch {
	case errors.Is(err, briq.ErrNoTables):
		return codeNoTables
	case errors.Is(err, briq.ErrNoMentions):
		return codeNoMentions
	case errors.Is(err, briq.ErrOverloaded):
		return codeOverloaded
	case errors.Is(err, briq.ErrDeadlineBudget),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return codeDeadline
	default:
		return codeUnprocessable
	}
}

// deadlineExceeded reports (and answers 504 deadline) an expired request
// context — the cooperative checkpoints between pipeline phases, since
// alignment itself is CPU-bound and cannot be interrupted mid-document.
func deadlineExceeded(w http.ResponseWriter, ctx context.Context) bool {
	if ctx.Err() == nil {
		return false
	}
	writeError(w, codeDeadline, "request deadline exceeded")
	return true
}

// writeJSON encodes v to a buffer first, so an encoding failure can still
// produce a clean 500 — once WriteHeader has fired the status is committed
// and a half-written body is all the client would get.
func writeJSON(w http.ResponseWriter, status int, v any) { api.WriteJSON(w, status, v) }
