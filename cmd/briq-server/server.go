package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
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
	"briq/internal/facts"
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

// serverOptions configure the HTTP layer around the pipeline.
type serverOptions struct {
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
// pointed at the server's metrics and its Sink at the aligned-corpus store
// (a memory-only one when main didn't open a persistent directory —
// /v1/search and /v1/facts work either way) before any request runs; after
// that the pipeline is shared read-only across handler goroutines. The align
// endpoints write to the store through the Sink, /v1/ingest through the
// ingestor's UpsertPage and AddPage. The pipeline's Workers sizes the
// fan-out of the batch path, its gate admits the misses of every path, and
// every path records its stage latencies into the server's metrics through
// the pipeline's Recorder.
func newServer(pipeline *briq.Pipeline, opts serverOptions) *server {
	if opts.logger == nil {
		opts.logger = log.New(io.Discard, "", 0)
	}
	m := newMetrics()
	pipeline.Recorder = m.stages
	st := opts.store
	if st == nil {
		var err error
		st, err = store.Open(store.Options{
			Fingerprint: fingerprint(pipeline),
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
	ing := ingest.New(pipeline, st, ingest.Options{})
	return &server{pipeline: pipeline, metrics: m, store: st, ingestor: ing, opts: opts}
}

// fingerprint returns the pipeline's model fingerprint: the one its gate
// was built with, or, with no gate, one computed now. A trained pipeline's
// fingerprint hashes both serialized forests, so a process computes it
// once; the store scoping its keys holds it for /v1/metrics.
func fingerprint(p *briq.Pipeline) string {
	if p.Gate != nil {
		return p.Gate.Fingerprint()
	}
	return p.Fingerprint()
}

// routes builds the full handler tree from the shared route table: every
// endpoint wrapped in the logging/recovery/metrics middleware, served under
// /v1 only.
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
		mux.Handle(api.Versioned(r.Path), s.instrument(r.Name, h))
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
					api.WriteError(sw, api.CodeInternal, "internal server error")
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
		api.WriteError(w, api.CodeMethodNotAllowed, "POST an HTML page body")
		return "", false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		api.WriteError(w, api.CodeBadRequest, fmt.Sprintf("read body: %v", err))
		return "", false
	}
	if len(body) == 0 {
		api.WriteError(w, api.CodeBadRequest, "empty body")
		return "", false
	}
	if !utf8.Valid(body) {
		api.WriteError(w, api.CodeBadRequest, "body is not valid UTF-8 text")
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
	buf := make([]byte, 0, resultSize(len(alignments), 0))
	if result, ok := appendAlignResult(buf, alignments); ok {
		api.WriteResultJSON(w, result)
		return
	}
	api.WriteResult(w, map[string]any{"alignments": alignments}) // reports the value appendAlignResult refused
}

// batchRequest is the POST /align/batch body.
type batchRequest struct {
	Pages []batchPage `json:"pages"`
}

// batchPage is one page of the body: its id is optional and defaults to
// page<index>.
type batchPage = briq.Page

type batchPageResult struct {
	ID         string           `json:"id"`
	Documents  int              `json:"documents"`
	Alignments []briq.Alignment `json:"alignments"`
}

// handleAlignBatch aligns many pages in one request through the facade's
// page path (briq.AlignPages): a page whose entry, keyed by its resolved ID
// and HTML, and whose documents' entries all hit is answered from them,
// never parsed; every other page is segmented keys-only, its documents are
// looked up, and the misses of the whole batch fan out over pipeline
// clones, a page per clone, occupying one admission slot, after which each
// page records its entry. A batch whose documents all hit takes no slot.
// The request context cancels the run mid-corpus, and each document's stage
// latencies reach the server metrics as it completes.
func (s *server) handleAlignBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, api.CodeMethodNotAllowed, `POST JSON {"pages": [{"id": ..., "html": ...}]}`)
		return
	}
	req, err := decodeBatch(http.MaxBytesReader(w, r.Body, maxBody), r.ContentLength)
	if err != nil {
		api.WriteError(w, api.CodeBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}
	if len(req.Pages) == 0 {
		api.WriteError(w, api.CodeBadRequest, "no pages in request")
		return
	}
	if len(req.Pages) > maxBatchPages {
		api.WriteError(w, api.CodePayloadTooLarge, fmt.Sprintf("too many pages: %d > %d", len(req.Pages), maxBatchPages))
		return
	}

	seenID := make(map[string]int)
	for i, pg := range req.Pages {
		id := pg.ID
		if id == "" {
			id = fmt.Sprintf("page%d", i)
		}
		if prev, dup := seenID[id]; dup {
			api.WriteError(w, api.CodeBadRequest, fmt.Sprintf("duplicate page id %q (pages %d and %d)", id, prev, i))
			return
		}
		seenID[id] = i
		req.Pages[i].ID = id
		if pg.HTML == "" {
			api.WriteError(w, api.CodeBadRequest, fmt.Sprintf("page %q: empty html", id))
			return
		}
	}
	perPage, err := briq.AlignPages(r.Context(), s.pipeline, req.Pages)
	if err != nil {
		if !deadlineExceeded(w, r.Context()) {
			writeAlignError(w, err)
		}
		return
	}

	results := make([]batchPageResult, len(req.Pages))
	documents, alignments := 0, 0
	for i, perDoc := range perPage {
		results[i] = batchPageResult{ID: req.Pages[i].ID, Documents: len(perDoc), Alignments: pageAlignments(perDoc)}
		documents += len(perDoc)
		alignments += len(results[i].Alignments)
	}
	s.metrics.batch.Add("pages", int64(len(req.Pages)))
	s.metrics.batch.Add("documents", int64(documents))
	s.metrics.batch.Add("alignments", int64(alignments))
	buf := make([]byte, 0, resultSize(alignments, len(results)))
	if result, ok := appendBatchResult(buf, results, documents, alignments); ok {
		api.WriteResultJSON(w, result)
		return
	}
	api.WriteResult(w, map[string]any{ // reports the value appendBatchResult refused
		"pages":      results,
		"documents":  documents,
		"alignments": alignments,
	})
}

// pageAlignments flattens one page's alignments in document order and sorts
// them as core.SortAlignments sorts a corpus. No two pages share a document
// ID, so this equals the page's part of the whole batch's alignments sorted
// at once, whichever other pages the batch holds. A page that aligns nothing
// reports [], not null.
func pageAlignments(perDoc [][]briq.Alignment) []briq.Alignment {
	n := 0
	for _, als := range perDoc {
		n += len(als)
	}
	out := make([]briq.Alignment, 0, n)
	for _, als := range perDoc {
		out = append(out, als...)
	}
	core.SortAlignments(out)
	return out
}

// handleSummarize answers POST /v1/summarize: the page aligned through the
// facade's page path (briq.AlignPageDocuments), which reads and fills the
// page and document entries as /v1/align does, then each document
// summarized from its alignments. Aligning misses takes an admission slot
// and runs under the request context, so -max-inflight sheds the route with
// 429 and -request-timeout stops it with 504, as on /v1/align.
func (s *server) handleSummarize(w http.ResponseWriter, r *http.Request) {
	src, ok := s.readPage(w, r)
	if !ok {
		return
	}
	docs, perDoc, err := briq.AlignPageDocuments(r.Context(), s.pipeline, "request", src)
	if err != nil {
		if !deadlineExceeded(w, r.Context()) {
			writeAlignError(w, err)
		}
		return
	}
	summarizer := summarize.New(s.pipeline)
	type docSummary struct {
		DocID     string   `json:"doc_id"`
		Sentences []string `json:"sentences"`
	}
	var out []docSummary
	for i, doc := range docs {
		sum := summarizer.FromAlignments(doc, perDoc[i])
		ds := docSummary{DocID: doc.ID}
		for _, sent := range sum.Sentences {
			ds.Sentences = append(ds.Sentences, sent.Text)
		}
		out = append(out, ds)
	}
	api.WriteResult(w, map[string]any{"summaries": out})
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
	if q.Value, err = parseValue("value", vals.Get("value")); err != nil {
		return quantsearch.Query{}, err
	}
	if v2 := vals.Get("value2"); v2 != "" {
		if q.Op != quantsearch.Between {
			return quantsearch.Query{}, fmt.Errorf("%w: value2 only applies to op=between", quantsearch.ErrBadQuery)
		}
		if q.Value2, err = parseValue("value2", v2); err != nil {
			return quantsearch.Query{}, err
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

// parseValue reads one numeric search parameter. NaN and ±Inf parse as
// floats but bound no range, so they are bad queries like any other
// unreadable number.
func parseValue(name, raw string) (float64, error) {
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%w: bad %s %q", quantsearch.ErrBadQuery, name, raw)
	}
	return v, nil
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
// ranked, in the shared paginated envelope. Only the list's first
// offset+limit results are ranked and built; the list's length, which the
// store counts, decides the next cursor.
func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, api.CodeMethodNotAllowed, "GET with query parameters")
		return
	}
	vals := r.URL.Query()
	q, err := parseSearchQuery(vals)
	if err != nil {
		api.WriteError(w, api.CodeBadQuery, err.Error())
		return
	}
	offset, limit, err := parsePage(vals)
	if err != nil {
		api.WriteError(w, api.CodeBadQuery, err.Error())
		return
	}
	win := api.PageWindow(offset, limit)
	head, total := s.store.SearchTop(q, win.End)
	items, next := api.Slice(win, head, total)
	writePage(w, items, next, appendResult)
}

// handleFacts answers GET /v1/facts: the aligned quantities known for one
// entity (canonicalized the same way the facts view keys them), confidence
// descending, in the shared paginated envelope.
func (s *server) handleFacts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, api.CodeMethodNotAllowed, "GET with an entity parameter")
		return
	}
	vals := r.URL.Query()
	entity := facts.CanonicalEntity(vals.Get("entity"))
	if entity == "" {
		api.WriteError(w, api.CodeBadQuery, "missing entity parameter")
		return
	}
	offset, limit, err := parsePage(vals)
	if err != nil {
		api.WriteError(w, api.CodeBadQuery, err.Error())
		return
	}
	items, next := api.Page(s.store.FactsFor(entity), offset, limit)
	writePage(w, items, next, appendFact)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, api.CodeMethodNotAllowed, "GET only")
		return
	}
	snap := s.metrics.snapshot()
	snap["serving"] = s.pipeline.Gate.Counters() // nil-safe: full zeroed schema without a gate
	snap["store"] = s.store.Counters()           // nil-safe: full zeroed schema without a store
	snap["model"] = map[string]string{"fingerprint": s.store.Fingerprint()}
	api.WriteJSON(w, http.StatusOK, snap)
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

// writeAlignError maps the facade's typed error taxonomy onto the stable
// error-code table: errors.Is against each sentinel, with a generic 422 for
// anything untyped (the page parsed but could not be aligned).
func writeAlignError(w http.ResponseWriter, err error) {
	api.WriteError(w, alignErrorCode(err), err.Error())
}

func alignErrorCode(err error) string {
	switch {
	case errors.Is(err, briq.ErrNoTables):
		return api.CodeNoTables
	case errors.Is(err, briq.ErrNoMentions):
		return api.CodeNoMentions
	case errors.Is(err, briq.ErrOverloaded):
		return api.CodeOverloaded
	case errors.Is(err, briq.ErrDeadlineBudget),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return api.CodeDeadline
	default:
		return api.CodeUnprocessable
	}
}

// deadlineExceeded reports (and answers 504 deadline) an expired request
// context. Handlers call it between their own steps; inside alignment the
// pipeline checks the context itself (see core.Pipeline.AlignContext) and
// returns its error, which writeAlignError maps to the same 504.
func deadlineExceeded(w http.ResponseWriter, ctx context.Context) bool {
	if ctx.Err() == nil {
		return false
	}
	api.WriteError(w, api.CodeDeadline, "request deadline exceeded")
	return true
}
