// Package briq is a from-scratch Go implementation of BriQ — "Bridging
// Quantities in Tables and Text" (Ibrahim, Riedewald, Weikum,
// Zeinalipour-Yazti; ICDE 2019): a system that detects quantity mentions in
// text and aligns each to the table cell — or virtual cell such as a column
// sum, a difference, a percentage or a change ratio — that it refers to.
//
// The root package is a thin facade over the pipeline; the stages live in
// internal packages:
//
//	document   table-text extraction: paragraphs + related tables + mentions
//	feature    mention-pair features f1–f12
//	forest     the Random Forest mention-pair classifier
//	tagger     the text-mention aggregation tagger
//	filter     adaptive candidate filtering
//	graph      candidate graph + random walks with restart (Algorithm 1)
//	runtime    corpus-scale concurrent alignment (one clone per goroutine)
//	serve      the traffic layer: result cache, single-flight, admission
//	corpus     the synthetic Common-Crawl-style corpus with ground truth
//	experiment the harness reproducing the paper's Tables I–IX
//
// Quick start:
//
//	p := briq.New()
//	alignments, err := briq.AlignHTMLContext(ctx, p, "page0", htmlSource)
//
// The pipeline is configured with functional options — trained models, a
// corpus fan-out width, a latency recorder, and the serving layer:
//
//	p := briq.New(briq.WithTrainedSeed(42), briq.WithWorkers(8),
//		briq.WithCache(64<<20), briq.WithMaxInFlight(32))
//	alignments, err := briq.AlignCorpus(ctx, p, docs)
//
// With WithCache, byte-identical requests are served from a sharded
// content-addressed result cache (hits are byte-identical to fresh runs) and
// concurrent identical requests coalesce into one pipeline run. With
// WithMaxInFlight, excess load is shed with ErrOverloaded/ErrDeadlineBudget
// instead of queuing unboundedly.
//
// Failures carry a typed taxonomy testable with errors.Is: ErrNoTables,
// ErrNoMentions, ErrUntrained, ErrOverloaded, ErrDeadlineBudget.
package briq

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/experiment"
	"briq/internal/htmlx"
	"briq/internal/obs"
	"briq/internal/quantsearch"
	"briq/internal/runtime"
	"briq/internal/serve"
)

// Pipeline is a configured BriQ instance; see core.Pipeline for the stage
// configuration fields.
type Pipeline = core.Pipeline

// Alignment is one resolved text↔table quantity alignment.
type Alignment = core.Alignment

// Document is one unit of alignment: a paragraph with its related tables and
// the quantity mentions of both (produced by the segmenter, by the synthetic
// corpus generator, or by corpus loaders).
type Document = document.Document

// Recorder collects per-stage latency histograms; construct one with
// NewRecorder and attach it via WithRecorder, then read Recorder.Snapshot.
type Recorder = obs.Recorder

// NewRecorder returns a Recorder with every pipeline stage pre-registered,
// so snapshots expose the full schema before any traffic.
func NewRecorder() *Recorder { return obs.NewRecorder(core.StageNames()...) }

// The alignment error taxonomy. Errors returned by the facade wrap these
// sentinels (with page or document context), so callers branch with
// errors.Is instead of matching strings.
var (
	// ErrNoTables reports a page with no table containing numeric cells —
	// nothing to align against.
	ErrNoTables = core.ErrNoTables
	// ErrNoMentions reports a page whose tables are fine but whose text has
	// no alignable quantity mentions.
	ErrNoMentions = core.ErrNoMentions
	// ErrUntrained reports an operation that needs trained models on a
	// heuristic-only pipeline (for example persisting models that were
	// never trained, or loading a model bundle without a classifier).
	ErrUntrained = core.ErrUntrained
	// ErrOverloaded reports a request shed by admission control
	// (WithMaxInFlight): every in-flight slot was taken and the wait queue
	// was at its watermark. No pipeline work was done; retry after backoff.
	ErrOverloaded = serve.ErrOverloaded
	// ErrDeadlineBudget reports a request whose context expired while it
	// waited for admission — its deadline budget was spent queuing.
	ErrDeadlineBudget = serve.ErrDeadlineBudget
	// ErrBadQuery reports an uninterpretable quantity-search query (no
	// numeric value, malformed comparison, invalid parameters) — the
	// validation taxonomy of /v1/search and /v1/facts.
	ErrBadQuery = quantsearch.ErrBadQuery
)

// Option configures the pipeline returned by New.
type Option func(*config)

type config struct {
	trainSeed   *int64
	workers     int
	recorder    *obs.Recorder
	cacheBytes  int64
	maxInFlight int
	warnings    []string
}

func (c *config) warnf(format string, args ...any) {
	c.warnings = append(c.warnings, fmt.Sprintf(format, args...))
}

// WithTrainedSeed trains the mention-pair classifier and the text-mention
// tagger on the deterministic synthetic corpus generated from seed (standing
// in for the paper's annotated tableS data) before returning the pipeline.
// Training takes a few seconds and turns the heuristic pipeline into full
// BriQ.
func WithTrainedSeed(seed int64) Option {
	return func(c *config) { c.trainSeed = &seed }
}

// WithWorkers sets the default fan-out width for corpus-scale alignment
// (AlignCorpus and the batch paths built on internal/runtime).
// A width below 1 is invalid: it is clamped to the GOMAXPROCS default and
// recorded in the pipeline's ConfigWarnings.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 1 {
			c.warnf("WithWorkers(%d): fan-out width must be ≥ 1; using GOMAXPROCS", n)
			c.workers = 0
			return
		}
		c.workers = n
	}
}

// WithRecorder attaches a latency Recorder: every aligned document reports
// its per-stage timings (classify, filter, resolve/rwr, …) to it, including
// each document of a corpus run as it completes.
func WithRecorder(r *Recorder) Option {
	return func(c *config) { c.recorder = r }
}

// WithCache bounds a content-addressed result cache at bytes and routes
// AlignHTMLContext and AlignCorpus through it: requests whose model
// fingerprint and input are byte-identical to a previous one are served from
// memory, and concurrent identical requests coalesce into a single pipeline
// run. Cached results are byte-identical to fresh runs; callers must treat
// returned alignments as read-only. bytes ≤ 0 disables the cache; a negative
// value is clamped to 0 and recorded in ConfigWarnings.
func WithCache(bytes int64) Option {
	return func(c *config) {
		if bytes < 0 {
			c.warnf("WithCache(%d): negative byte budget; caching disabled", bytes)
			c.cacheBytes = 0
			return
		}
		c.cacheBytes = bytes
	}
}

// WithMaxInFlight bounds the number of concurrently admitted pipeline
// computations across AlignHTMLContext and AlignCorpus. Up to 2n further
// requests wait for a slot; beyond that watermark requests fail fast with
// ErrOverloaded, and a request whose context dies while queued fails with
// ErrDeadlineBudget. n ≤ 0 disables admission control; a negative value is
// clamped to 0 and recorded in ConfigWarnings.
func WithMaxInFlight(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.warnf("WithMaxInFlight(%d): negative bound; admission control disabled", n)
			c.maxInFlight = 0
			return
		}
		c.maxInFlight = n
	}
}

// New returns a pipeline configured by the given options; with none it is
// the default configuration: rule-based tagger and heuristic (untrained)
// pair scoring, useful for experimentation and demos.
//
// Out-of-range option values are clamped to their safe default and recorded
// in the pipeline's ConfigWarnings rather than silently misbehaving.
//
// New panics if WithTrainedSeed training fails — impossible for the built-in
// corpus generator short of a programming error.
func New(opts ...Option) *Pipeline {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	p := core.NewPipeline()
	if cfg.trainSeed != nil {
		trained, err := newTrained(*cfg.trainSeed)
		if err != nil {
			panic("briq: training failed: " + err.Error())
		}
		p = trained
	}
	return cfg.finish(p)
}

// finish applies the post-model configuration — fan-out, recorder, serving
// gate — to a pipeline whose models are already in place.
func (c *config) finish(p *core.Pipeline) *Pipeline {
	p.Workers = c.workers
	p.Recorder = c.recorder
	p.ConfigWarnings = c.warnings
	if c.cacheBytes > 0 || c.maxInFlight > 0 {
		p.Gate = serve.NewEngine(serve.Config{
			Fingerprint: p.Fingerprint(),
			CacheBytes:  c.cacheBytes,
			MaxInFlight: c.maxInFlight,
			MaxQueue:    serve.DefaultMaxQueue,
		})
	}
	return p
}

// NewFromModelFile builds a pipeline from a model bundle written by
// briq-train, applying the same options New accepts (cache, admission,
// workers, …). Loading is how a replica fleet boots every process
// from one training run: all replicas share a model fingerprint, so a
// gateway can route by content key knowing any replica computes an
// identical, cache-compatible result. WithTrainedSeed conflicts with
// loading and is rejected.
func NewFromModelFile(path string, opts ...Option) (*Pipeline, error) {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.trainSeed != nil {
		return nil, fmt.Errorf("briq: NewFromModelFile: WithTrainedSeed conflicts with loading models from %s", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("briq: load models: %w", err)
	}
	defer f.Close()
	tr, err := experiment.LoadModels(f)
	if err != nil {
		return nil, fmt.Errorf("briq: load models from %s: %w", path, err)
	}
	return cfg.finish(experiment.NewBriQ(tr).P), nil
}

// newTrained generates a deterministic synthetic training corpus, trains the
// mention-pair classifier and the text-mention tagger on it, and returns the
// full BriQ pipeline.
func newTrained(seed int64) (*Pipeline, error) {
	cfg := corpus.TableSConfig(seed)
	cfg.Pages = 150 // enough gold pairs for stable models
	c := corpus.Generate(cfg)
	split := experiment.SplitCorpus(c, seed)
	trained, err := experiment.Train(c, split.Train, experiment.DefaultTrainOptions(seed))
	if err != nil {
		return nil, err
	}
	return experiment.NewBriQ(trained).P, nil
}

// AlignHTMLContext parses an HTML page and aligns every quantity mention of
// its paragraphs to the related tables. ctx is checked between pipeline
// phases, once per text mention inside classify and before each random walk
// inside resolve, so a passed deadline stops the page mid-document. A page
// with nothing to align fails with ErrNoTables or ErrNoMentions (wrapped;
// test with errors.Is).
//
// It is AlignPages for one page, with its miss run inside the gate's single
// flight: concurrent identical requests trigger one pipeline run and share
// its alignments. Under saturation the request may fail with ErrOverloaded
// or ErrDeadlineBudget.
func AlignHTMLContext(ctx context.Context, p *Pipeline, pageID, html string) ([]Alignment, error) {
	key := p.Gate.PageKey(pageID, html)
	// An entry with no documents does not answer: only segmentation tells
	// ErrNoTables from ErrNoMentions.
	if perDoc, ok := lookupPage(p, key); ok && len(perDoc) > 0 {
		return flattenAlignments(perDoc), nil
	}
	v, _, err := p.Gate.Do(ctx, key, func(ctx context.Context) (any, error) {
		seg, err := segmentPage(p, pageID, html, false)
		if err == nil {
			err = core.PageError(pageID, seg)
		}
		if err != nil {
			return nil, err
		}
		return alignPages(ctx, p, []serve.Key{key}, [][]*Document{seg.Docs}, false)
	})
	if err != nil {
		return nil, err
	}
	return flattenAlignments(v.([][][]Alignment)[0]), nil
}

// Page is one page of a request: its ID, which prefixes its document and
// table IDs, and its HTML source.
type Page struct {
	ID   string `json:"id"`
	HTML string `json:"html"`
}

// AlignPages is the path every page route takes. It returns perPage[i][j],
// the alignments of the j-th document of pages[i], read-only. A page whose
// entry (its document keys, in page order) and document entries all hit is
// answered from them; every other page is segmented keys-only and aligned
// through alignPages, its misses under one admission slot.
func AlignPages(ctx context.Context, p *Pipeline, pages []Page) ([][][]Alignment, error) {
	perPage := make([][][]Alignment, len(pages))
	var missKeys []serve.Key
	var missDocs [][]*Document
	var missIdx []int
	for i, pg := range pages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		key := p.Gate.PageKey(pg.ID, pg.HTML)
		if perDoc, ok := lookupPage(p, key); ok {
			perPage[i] = perDoc
			continue
		}
		seg, err := segmentPage(p, pg.ID, pg.HTML, false)
		if err != nil {
			return nil, err
		}
		missKeys, missDocs, missIdx = append(missKeys, key), append(missDocs, seg.Docs), append(missIdx, i)
	}
	aligned, err := alignPages(ctx, p, missKeys, missDocs, true)
	if err != nil {
		return nil, err
	}
	for j, i := range missIdx {
		perPage[i] = aligned[j]
	}
	return perPage, nil
}

// AlignPageDocuments is AlignPages for one page whose caller also reads its
// documents: it segments the page fully, table mentions included, whether
// its entries answer or not. A page with no documents is not an error.
func AlignPageDocuments(ctx context.Context, p *Pipeline, pageID, html string) ([]*Document, [][]Alignment, error) {
	key := p.Gate.PageKey(pageID, html)
	perDoc, hit := lookupPage(p, key)
	seg, err := segmentPage(p, pageID, html, true)
	if err != nil || hit {
		return seg.Docs, perDoc, err
	}
	perPage, err := alignPages(ctx, p, []serve.Key{key}, [][]*Document{seg.Docs}, true)
	if err != nil {
		return nil, nil, err
	}
	return seg.Docs, perPage[0], nil
}

// lookupPage reads a page's entry, then each of its documents' entries in
// page order, stopping at the first miss. Each lookup counts as a hit or a
// miss.
func lookupPage(p *Pipeline, key serve.Key) ([][]Alignment, bool) {
	v, ok := p.Gate.Lookup(key)
	if !ok {
		return nil, false
	}
	keys := v.([]serve.Key)
	perDoc := make([][]Alignment, len(keys))
	for i, k := range keys {
		if v, ok = p.Gate.Lookup(k); !ok {
			return nil, false
		}
		perDoc[i] = v.([]Alignment)
	}
	return perDoc, true
}

// segmentPage parses and segments a page, keys-only unless full, timed as
// StageSegment.
func segmentPage(p *Pipeline, pageID, html string, full bool) (document.Segmentation, error) {
	start := time.Now()
	seg, err := p.Segmenter.SegmentPageKeys(pageID, htmlx.ParseString(html))
	if full {
		p.Segmenter.BuildTableMentions(seg.Docs)
	}
	p.Recorder.Observe(core.StageSegment, time.Since(start))
	return seg, err
}

// alignPages aligns the documents of pages that missed their entries
// (alignDocuments), then records the entry of each, under pageKeys[i]: its
// document keys, in the cache and then through the sink. Without a gate
// there is no page key.
func alignPages(ctx context.Context, p *Pipeline, pageKeys []serve.Key, pages [][]*Document, admit bool) ([][][]Alignment, error) {
	var docs []*Document
	for _, pg := range pages {
		docs = append(docs, pg...)
	}
	perDoc, keys, err := alignDocuments(ctx, p, docs, admit)
	if err != nil {
		return nil, err
	}
	perPage := make([][][]Alignment, len(pages))
	lo := 0
	for i, pg := range pages {
		hi := lo + len(pg)
		perPage[i] = perDoc[lo:hi:hi]
		if docKeys := keys[lo:hi:hi]; p.Gate != nil {
			p.Gate.Store(pageKeys[i], docKeys, core.PageDocsSize(docKeys))
			if p.Sink != nil {
				p.Sink.AddPage(pageKeys[i], docKeys)
			}
		}
		lo = hi
	}
	return perPage, nil
}

// flattenAlignments concatenates per-document groups in order, preserving
// nil-ness when nothing aligned (so sink-wired and plain paths marshal
// identically).
func flattenAlignments(perDoc [][]Alignment) []Alignment {
	var out []Alignment
	for _, als := range perDoc {
		out = append(out, als...)
	}
	return out
}

// IsUnalignable reports whether err only says the input had nothing to align
// (ErrNoTables or ErrNoMentions) — the "empty, not broken" class of the
// taxonomy, which batch ingestion over noisy pages typically skips.
func IsUnalignable(err error) bool {
	return errors.Is(err, ErrNoTables) || errors.Is(err, ErrNoMentions)
}

// AlignCorpus aligns a document corpus concurrently — one pipeline clone per
// goroutine — using the pipeline's Workers as the fan-out width. The result
// order is deterministic (document ID, then text mention) and byte-for-byte
// identical to a serial run. On cancellation it returns ctx.Err(); stage
// latencies go to the pipeline's Recorder when one is attached.
//
// On a pipeline with a serving layer, each document is content-addressed
// individually: documents already aligned under the same models are served
// from the cache and only the misses fan out over the clones, occupying one
// admission slot (failing fast with ErrOverloaded / ErrDeadlineBudget under
// saturation).
func AlignCorpus(ctx context.Context, p *Pipeline, docs []*Document) ([]Alignment, error) {
	perDoc, _, err := alignDocuments(ctx, p, docs, true)
	if err != nil {
		return nil, err
	}
	out := flattenAlignments(perDoc)
	core.SortAlignments(out)
	return out, nil
}

// alignDocuments keys each document once, for the lookup and the sink
// alike (zero keys with neither a gate nor a sink), and answers it from its
// entry where it can. The misses go through runtime.AlignMisses, a page per
// worker, under one admission slot when admit is set, and are recorded in
// the cache and then through the sink.
func alignDocuments(ctx context.Context, p *Pipeline, docs []*Document, admit bool) (perDoc [][]Alignment, keys []serve.Key, err error) {
	keys = documentKeys(p, docs)
	perDoc = make([][]Alignment, len(docs))
	var missDocs []*Document
	var missKeys []serve.Key
	var missIdx []int
	for i, doc := range docs {
		if v, ok := p.Gate.Lookup(keys[i]); ok {
			perDoc[i] = v.([]Alignment)
			continue
		}
		missDocs = append(missDocs, doc)
		missKeys = append(missKeys, keys[i])
		missIdx = append(missIdx, i)
	}
	if len(missDocs) == 0 {
		return perDoc, keys, nil
	}
	fresh, err := runtime.AlignMisses(ctx, p, missDocs, admit)
	if err != nil {
		return nil, nil, err
	}
	for j, als := range fresh {
		perDoc[missIdx[j]] = als
		p.Gate.Store(missKeys[j], als, core.AlignmentsSize(als))
	}
	if p.Sink != nil {
		p.Sink.Add(missDocs, missKeys, fresh)
	}
	return perDoc, keys, nil
}

// documentKeys keys docs as the gate and the sink file them:
// serve.KeyOf(p.Fingerprint(), HashDocument). The gate holds the fingerprint
// it was built with; a gate-less pipeline asks its sink, which holds it too,
// rather than recompute it. With neither, nothing needs a key, and every key
// is zero.
func documentKeys(p *Pipeline, docs []*Document) []serve.Key {
	keys := make([]serve.Key, len(docs))
	var key func(*Document) serve.Key
	switch {
	case p.Gate != nil:
		key = func(d *Document) serve.Key {
			return p.Gate.KeyFrom(func(w io.Writer) { core.HashDocument(w, d) })
		}
	case p.Sink != nil:
		key = p.Sink.DocumentKey
	default:
		return keys
	}
	for i, d := range docs {
		keys[i] = key(d)
	}
	return keys
}
