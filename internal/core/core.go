package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"briq/internal/document"
	"briq/internal/feature"
	"briq/internal/filter"
	"briq/internal/forest"
	"briq/internal/graph"
	"briq/internal/htmlx"
	"briq/internal/obs"
	"briq/internal/quantity"
	"briq/internal/resolve"
	"briq/internal/serve"
	"briq/internal/tagger"
)

// Stage names under which the pipeline reports timings to its Recorder. The
// first three are the per-document stages of Fig. 2; StageSegment covers
// page→document extraction and StageAlign the whole per-document run.
// Resolution reports under a per-strategy name (StageResolveFor), so a server
// running a non-default resolver shows its latency under resolve/ilp or
// resolve/greedy instead of blending strategies into one histogram.
const (
	StageClassify     = "classify"      // ScorePairs: mention-pair feature scoring
	StageClassifyGate = "classify/gate" // pre-classifier gate inside classify
	StageFilter       = "filter"        // adaptive candidate filtering
	StageResolve      = "resolve/rwr"   // default resolution: graph build + random walks
	StageSegment      = "segment"       // HTML page → documents
	StageAlign        = "align"         // full per-document Align
)

// StageResolveFor returns the stage name the pipeline reports resolution
// latency under for the named strategy: "resolve/rwr", "resolve/ilp",
// "resolve/greedy", …
func StageResolveFor(resolver string) string { return "resolve/" + resolver }

// StageNames lists every stage the pipeline can report, in pipeline order.
// All built-in resolver stages are included so recorders pre-register the
// full schema — /metrics exposes an identical shape whichever strategy the
// pipeline runs, and the golden schema test holds across -resolver flags.
func StageNames() []string {
	names := []string{StageSegment, StageClassify, StageClassifyGate, StageFilter}
	for _, r := range resolve.Names() {
		names = append(names, StageResolveFor(r))
	}
	return append(names, StageAlign)
}

// The pipeline's error taxonomy. Callers branch on these with errors.Is; the
// root briq package re-exports them under the same identities. Errors
// returned by the pipeline wrap a sentinel with page/document context via %w.
var (
	// ErrNoTables: the page carries no table with numeric cells, so there is
	// nothing to align against.
	ErrNoTables = errors.New("page has no tables with numeric cells")
	// ErrNoMentions: the page has usable tables, but no paragraph carries
	// enough quantity mentions to form an alignable document.
	ErrNoMentions = errors.New("page text has no alignable quantity mentions")
	// ErrUntrained: the operation needs trained models (classifier + tagger)
	// but the pipeline only has the heuristic configuration.
	ErrUntrained = errors.New("pipeline has no trained models")
)

// Alignment is one resolved text↔table quantity alignment, the system's
// output unit.
type Alignment struct {
	DocID       string       `json:"doc_id"`
	TextIndex   int          `json:"text_index"`   // index into the document's text mentions
	TableIndex  int          `json:"table_index"`  // index into the document's table mentions
	TextSurface string       `json:"text_surface"` // e.g. "total of 123"
	TextStart   int          `json:"text_start"`   // byte span of the mention in the paragraph
	TextEnd     int          `json:"text_end"`
	TableKey    string       `json:"table_key"` // e.g. "t0:sum(col 3)"
	Agg         quantity.Agg `json:"-"`
	AggName     string       `json:"agg"`
	Value       float64      `json:"value"` // the table-side value
	Score       float64      `json:"score"` // OverallScore of the decision
}

// Pipeline is a configured BriQ instance. Classifier may be nil, in which
// case pair scores fall back to the unweighted mean of the (masked) feature
// vector — the same uninformed combination the RWR-only baseline uses; a
// trained classifier is what turns the pipeline into full BriQ.
type Pipeline struct {
	Features     feature.Config
	Mask         feature.Mask
	Classifier   *forest.Forest
	Tagger       tagger.Tagger
	FilterConfig filter.Config
	GraphConfig  graph.Config
	Segmenter    *document.Segmenter

	// Resolver is the global-resolution strategy. nil selects the default:
	// the paper's random-walk algorithm (resolve.RWR) built from GraphConfig
	// on every Align, so GraphConfig tuning keeps applying — and the default
	// path stays byte-identical to the historical hardcoded graph.Resolve
	// call. Set it before the pipeline is shared across goroutines; a
	// non-nil Resolver built by its New* constructor is safe for concurrent
	// Resolve calls, and Clone gives each worker clone a private resolver
	// clone with its own scratch.
	Resolver resolve.Resolver

	// Recorder, when non-nil, receives per-stage latencies (StageClassify,
	// StageFilter, StageResolve, …) for every document aligned. It must be
	// set before the pipeline is shared across goroutines; after that the
	// pipeline is read-only and the Recorder itself is concurrency-safe.
	Recorder *obs.Recorder

	// Workers is the default fan-out width for corpus-scale alignment
	// (AlignAll with workers ≤ 0, the runtime pool, briq.AlignCorpus).
	// Zero or negative means GOMAXPROCS.
	Workers int

	// Gate, when non-nil, is the serving layer the page- and corpus-level
	// facade paths route through: a content-addressed result cache,
	// single-flight dedup of concurrent identical requests, and admission
	// control that sheds excess load with serve.ErrOverloaded /
	// serve.ErrDeadlineBudget. It must be set before the pipeline is shared
	// across goroutines; clones share the same gate. The pipeline's models
	// must not be mutated while a gate holds results computed from them —
	// the cache key includes the model fingerprint taken at configuration
	// time.
	Gate *serve.Engine

	// Sink, when non-nil, receives every freshly computed per-document
	// alignment from the facade paths (page and corpus) — the write-through
	// hook the persistent store attaches to build its corpus and quantity
	// index as documents are aligned. Cache hits are not re-offered. It must
	// be set before the pipeline is shared across goroutines; clones share
	// the same sink, and its implementation must be concurrency-safe.
	Sink AlignmentSink

	// ConfigWarnings records non-fatal configuration problems found at
	// construction (out-of-range option values that were clamped). Callers
	// that care — the server logs them at startup — read it once after New;
	// it is never mutated afterward.
	ConfigWarnings []string

	// ReferenceClassify forces the per-pair pointer-tree reference path
	// instead of the frozen flat-array batch engine. Output is identical by
	// contract (the equivalence suite pins bit-identity), so the flag is not
	// part of Fingerprint; it exists for the equivalence tests and the bench's
	// before/after comparison.
	ReferenceClassify bool

	// NoClassifyGate disables the pre-classifier gate of the internal align
	// path. The gate is decision-identical (it only skips feature computation
	// for pairs the filter stage drops unconditionally), so this flag is not
	// part of Fingerprint either; it exists for the gate-on vs gate-off
	// decision-identity test and for measuring the gate's contribution.
	NoClassifyGate bool

	// frozen memoizes the flat-array compilation of Classifier, shared by all
	// clones so a corpus run compiles the forest once. nil (a zero-value
	// Pipeline not built by NewPipeline) falls back to the reference path.
	frozen *frozenCache

	// local is per-clone scratch (see Clone). It is nil on pipelines built
	// by NewPipeline, which therefore stay safe for concurrent Align calls;
	// a clone owns its scratch and must serve one goroutine at a time.
	local *localScratch
}

// localScratch holds buffers a single-goroutine pipeline clone reuses across
// documents, so corpus runs stop paying the per-document allocation for the
// |X|·|T| candidate slice and the classify batch matrices.
type localScratch struct {
	candidates []filter.Candidate
	live       []int     // candidate indices that passed the gate
	feats      []float64 // row-major masked feature matrix, one row per live pair
	scores     []float64 // batch classifier output
	votes      []float64 // per-class vote scratch of the batch walk
}

// frozenCache lazily compiles the pipeline's classifier into its flat-array
// inference form and caches the compilation keyed by forest identity. Clones
// share one cache (Clone copies the pointer), so concurrent workers compile
// once; the mutex covers the swap-recompile, and a retrained classifier (the
// tuning harness replaces p.Classifier between runs) recompiles on next use.
type frozenCache struct {
	mu  sync.Mutex
	src *forest.Forest
	fz  *forest.Frozen
}

// engineFor returns the frozen engine for f, compiling it on first use or
// when f differs from the cached source. A nil cache or nil forest yields
// nil, which callers treat as "use the reference path".
func (c *frozenCache) engineFor(f *forest.Forest) *forest.Frozen {
	if c == nil || f == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.src != f {
		c.src, c.fz = f, f.Frozen()
	}
	return c.fz
}

// Clone returns a shallow copy of the pipeline for a dedicated worker
// goroutine. Models and configuration are shared read-only with the
// original; the clone gets its own scratch buffers (kept warm across the
// documents it aligns) and its own Recorder slot, so a worker records stage
// latencies without cross-worker contention.
//
// Unlike a NewPipeline instance, a clone must NOT be used for concurrent
// Align calls: its scratch is single-owner by design. The runtime pool gives
// each worker exactly one clone.
func (p *Pipeline) Clone() *Pipeline {
	c := *p
	c.local = &localScratch{}
	if p.Resolver != nil {
		c.Resolver = p.Resolver.Clone()
	}
	return &c
}

// resolver returns the pipeline's resolution strategy: the configured one, or
// the default random-walk strategy assembled from the pipeline's GraphConfig.
// The default is built per call (it is a two-word struct) so GraphConfig
// edits made between Align calls — the tuning harness does this — keep
// taking effect, exactly as the pre-interface hardcoded path behaved.
func (p *Pipeline) resolver() resolve.Resolver {
	if p.Resolver != nil {
		return p.Resolver
	}
	return &resolve.RWR{Config: p.GraphConfig}
}

// ResolverName returns the active resolution strategy's name ("rwr" unless a
// non-default Resolver is configured) — the value the server logs at startup
// and the bench report records per comparison row.
func (p *Pipeline) ResolverName() string { return p.resolver().Name() }

// NewPipeline returns a pipeline with default configuration, the rule-based
// tagger and no classifier (heuristic scores).
func NewPipeline() *Pipeline {
	return &Pipeline{
		Features:     feature.DefaultConfig(),
		Mask:         feature.FullMask(),
		Tagger:       tagger.Rule{},
		FilterConfig: filter.DefaultConfig(),
		GraphConfig:  graph.DefaultConfig(),
		Segmenter:    document.NewSegmenter(),
		frozen:       &frozenCache{},
	}
}

// ScorePairs computes classifier scores σ for every (text, table) mention
// pair of the document — the local resolution of §IV. The public entry point
// never gates: every pair gets its true score, because callers such as the
// RF-only baseline threshold raw scores and must observe them even for pairs
// the align path would discard.
func (p *Pipeline) ScorePairs(doc *document.Document) []filter.Candidate {
	out, _ := p.scorePairs(doc, false)
	return out
}

// scorePairs is the classify stage. With gated=true (the internal align
// path, unless NoClassifyGate is set) it first tags every text mention, then
// skips f1–f12 feature computation entirely for two kinds of pairs, which
// keep a zero score:
//
//   - tag-pruned: the table mention is virtual and its aggregation differs
//     from the text mention's tag (step 1 of filter.Apply);
//   - unit-pruned: units are specified on both sides and incompatible
//     (step 2 of filter.Apply).
//
// The filter stage drops exactly those pairs whatever their score, and its
// mention-type vote, entropy and top-k read only survivors, so gating is
// decision-identical to scoring everything. The candidate row still exists,
// keeping filter counters unchanged. The tags are returned so the filter
// stage reuses them instead of tagging again; ungated calls return nil tags.
//
// Scoring itself runs through the frozen flat-array engine in batch — one
// masked feature matrix, one scratch — unless ReferenceClassify is set or no
// engine is available, in which case the per-pair pointer-tree reference path
// runs. Both paths produce bit-identical scores (the equivalence suite pins
// this), so callers cannot tell them apart except by speed.
func (p *Pipeline) scorePairs(doc *document.Document, gated bool) ([]filter.Candidate, []quantity.Agg) {
	ext := feature.NewExtractor(p.Features, doc)
	n := len(doc.TextMentions) * len(doc.TableMentions)
	local := p.local
	var out []filter.Candidate
	var live []int
	if local != nil {
		// Clone-owned buffers: safe to reuse across documents because the
		// filter stage regroups candidates into fresh slices and nothing
		// downstream retains them past the Align call.
		if cap(local.candidates) < n {
			local.candidates = make([]filter.Candidate, 0, n)
		}
		out = local.candidates[:0]
		live = local.live[:0]
		defer func() {
			local.candidates = out[:0]
			local.live = live[:0]
		}()
	} else {
		out = make([]filter.Candidate, 0, n)
		live = make([]int, 0, n)
	}

	gated = gated && !p.NoClassifyGate
	var tags []quantity.Agg
	gateStart := time.Now()
	if gated {
		tags = tagger.TagAll(p.Tagger, doc)
	}
	for xi := range doc.TextMentions {
		x := &doc.TextMentions[xi]
		for ti, tm := range doc.TableMentions {
			if gated && (filter.TagPruned(tm, tags[xi]) || filter.UnitPruned(x, tm)) {
				out = append(out, filter.Candidate{Text: xi, Table: ti})
				continue
			}
			live = append(live, len(out))
			out = append(out, filter.Candidate{Text: xi, Table: ti})
		}
	}
	if gated {
		p.Recorder.Observe(StageClassifyGate, time.Since(gateStart))
	}

	var engine *forest.Frozen
	if p.Classifier != nil && !p.ReferenceClassify {
		engine = p.frozen.engineFor(p.Classifier)
	}
	if engine == nil {
		// Reference path: per-pair vectors through Mask.Apply and the
		// pointer-tree walker (or the heuristic goodness mean).
		var vec [feature.NumFeatures]float64
		for _, idx := range live {
			c := &out[idx]
			c.Score = p.score(ext.VectorInto(c.Text, c.Table, vec[:]))
		}
		return out, tags
	}

	// Batch path: project each live pair's vector onto the mask into one
	// row-major matrix, then run all rows through the flat forest with a
	// single vote scratch. The projection loop appends kept features in index
	// order — the same order Mask.Apply produces.
	m := p.Mask.Count()
	nLive := len(live)
	var feats, scores, votes []float64
	if local != nil {
		feats, scores, votes = local.feats, local.scores, local.votes
	}
	if cap(feats) < nLive*m {
		feats = make([]float64, nLive*m)
	} else {
		feats = feats[:nLive*m]
	}
	var full [feature.NumFeatures]float64
	for r, idx := range live {
		c := &out[idx]
		vec := ext.VectorInto(c.Text, c.Table, full[:])
		dst := feats[r*m : (r+1)*m]
		k := 0
		for i, v := range vec {
			if p.Mask[i] {
				dst[k] = v
				k++
			}
		}
	}
	if cap(votes) < engine.BatchScratchLen() {
		votes = make([]float64, engine.BatchScratchLen())
	}
	scores = engine.PositiveProbaBatch(feats, nLive, scores, votes)
	for r, idx := range live {
		out[idx].Score = scores[r]
	}
	if local != nil {
		local.feats, local.scores, local.votes = feats, scores, votes
	}
	return out, tags
}

// score maps a full feature vector to a pair confidence: the trained
// classifier's positive-vote fraction, or — without a classifier — the
// uniform-weight mean of the goodness-oriented features kept by the mask
// (the same uninformed combination the RWR-only baseline uses).
func (p *Pipeline) score(full []float64) float64 {
	if p.Classifier != nil {
		return p.Classifier.PositiveProba(p.Mask.Apply(full))
	}
	var total float64
	n := 0
	for i, v := range full {
		if !p.Mask[i] {
			continue
		}
		total += feature.Goodness(i, v)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// Align runs the full pipeline on one document and returns its alignments in
// text-mention order. Stage latencies are reported to the pipeline's Recorder
// when one is set.
func (p *Pipeline) Align(doc *document.Document) []Alignment {
	out, _ := p.AlignContext(context.Background(), doc) // background ctx: cannot fail
	return out
}

// AlignContext is Align with cooperative cancellation: the context is checked
// before each pipeline phase (classify → filter → resolve), so a canceled
// corpus run stops within one phase of the current document instead of
// finishing it. On cancellation it returns ctx.Err(); the phases themselves
// are CPU-bound and run to completion once started (the ILP resolver also
// checks the context inside its search loop).
func (p *Pipeline) AlignContext(ctx context.Context, doc *document.Document) ([]Alignment, error) {
	rec := p.Recorder
	alignStart := time.Now()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := alignStart
	candidates, tags := p.scorePairs(doc, true)
	rec.Observe(StageClassify, time.Since(start))

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start = time.Now()
	var filtered filter.Result
	if tags != nil {
		filtered = filter.ApplyTagged(p.FilterConfig, doc, tags, candidates)
	} else {
		filtered = filter.Apply(p.FilterConfig, doc, p.Tagger, candidates)
	}
	rec.Observe(StageFilter, time.Since(start))

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start = time.Now()
	res := p.resolver()
	resolved, err := res.Resolve(ctx, doc, filtered.Kept)
	if err != nil {
		return nil, err
	}
	rec.Observe(StageResolveFor(res.Name()), time.Since(start))

	out := make([]Alignment, 0, len(resolved))
	for _, a := range resolved {
		out = append(out, p.toAlignment(doc, a.Text, a.Table, a.Score))
	}
	rec.Observe(StageAlign, time.Since(alignStart))
	return out, nil
}

func (p *Pipeline) toAlignment(doc *document.Document, xi, ti int, score float64) Alignment {
	x := doc.TextMentions[xi]
	tm := doc.TableMentions[ti]
	return Alignment{
		DocID:       doc.ID,
		TextIndex:   xi,
		TableIndex:  ti,
		TextSurface: x.Surface,
		TextStart:   x.Start,
		TextEnd:     x.End,
		TableKey:    tm.Key(),
		Agg:         tm.Agg,
		AggName:     tm.Agg.String(),
		Value:       tm.Value,
		Score:       score,
	}
}

// AlignPage segments an HTML page into documents and aligns each; the
// returned alignments are grouped by document in page order.
func (p *Pipeline) AlignPage(pageID string, page *htmlx.Page) ([]Alignment, error) {
	return p.AlignPageContext(context.Background(), pageID, page)
}

// AlignPageContext segments an HTML page into documents and aligns each,
// honoring ctx between pipeline phases. A page that yields no alignable
// document reports why: ErrNoTables when no table has numeric cells,
// ErrNoMentions when tables exist but no paragraph carries quantity
// mentions; both wrapped with the page ID and testable via errors.Is.
func (p *Pipeline) AlignPageContext(ctx context.Context, pageID string, page *htmlx.Page) ([]Alignment, error) {
	_, perDoc, err := p.AlignPageDocsContext(ctx, pageID, page)
	if err != nil {
		return nil, err
	}
	var out []Alignment
	for _, als := range perDoc {
		out = append(out, als...)
	}
	return out, nil
}

// AlignPageDocsContext is AlignPageContext keeping the per-document
// grouping: it returns the segmented documents in page order and each
// document's alignments at the matching index. Callers that persist or index
// per document (the facade's sink wiring) use this; flattening the groups in
// order reproduces AlignPageContext exactly.
func (p *Pipeline) AlignPageDocsContext(ctx context.Context, pageID string, page *htmlx.Page) ([]*document.Document, [][]Alignment, error) {
	seg := p.Segmenter
	if seg == nil {
		seg = document.NewSegmenter()
	}
	start := time.Now()
	res, err := seg.SegmentPageInfo(pageID, page)
	p.Recorder.Observe(StageSegment, time.Since(start))
	if err != nil {
		return nil, nil, fmt.Errorf("segment page %s: %w", pageID, err)
	}
	if len(res.Docs) == 0 {
		if res.NumericTables == 0 {
			return nil, nil, fmt.Errorf("page %s: %w", pageID, ErrNoTables)
		}
		return nil, nil, fmt.Errorf("page %s: %w", pageID, ErrNoMentions)
	}
	perDoc := make([][]Alignment, len(res.Docs))
	for i, doc := range res.Docs {
		als, err := p.AlignContext(ctx, doc)
		if err != nil {
			return nil, nil, fmt.Errorf("align %s: %w", doc.ID, err)
		}
		perDoc[i] = als
	}
	return res.Docs, perDoc, nil
}

// Fingerprint returns a stable content hash of everything that determines
// the pipeline's output for a given input: stage configurations, the feature
// mask, the segmenter, the resolution strategy (name and parameters), and
// the full serialized models (classifier and learned tagger). It scopes
// serving-layer cache keys, so two pipelines share cached results iff they
// would compute identical alignments.
//
// The hash covers trained models byte-for-byte (via their Save encoding), so
// computing it on a trained pipeline costs a few milliseconds; callers cache
// it (the serve.Engine takes it once at construction).
func (p *Pipeline) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "briq-pipeline|features=%+v|mask=%v|filter=%+v|graph=%+v",
		p.Features, p.Mask, p.FilterConfig, p.GraphConfig)
	// The resolution strategy and its parameters change output, so they scope
	// cache keys: a pipeline resolving with ILP must never serve a result
	// computed under RWR (or under ILP with a different budget) and vice
	// versa — the serve-layer cache-poisoning hazard the isolation test in
	// briq_resolver_test.go pins down.
	res := p.resolver()
	fmt.Fprintf(h, "|resolver=%s|rparams=%s", res.Name(), res.ParamsHash())
	if p.Segmenter != nil {
		fmt.Fprintf(h, "|segmenter=%+v", *p.Segmenter)
	}
	// Taggers and classifiers are hashed through their serialized form —
	// struct formatting would print pointer addresses, not model content.
	fmt.Fprintf(h, "|tagger=%T", p.Tagger)
	if lt, ok := p.Tagger.(*tagger.Learned); ok && lt != nil {
		_ = lt.Forest().Save(h) // writing into a hash cannot fail
	}
	if p.Classifier != nil {
		fmt.Fprintf(h, "|classifier=")
		_ = p.Classifier.Save(h)
	} else {
		fmt.Fprintf(h, "|classifier=none")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// EnsureTrained returns ErrUntrained unless the pipeline carries a trained
// mention-pair classifier — the guard for operations (model persistence,
// trained-only serving) that are meaningless on the heuristic configuration.
func (p *Pipeline) EnsureTrained() error {
	if p.Classifier == nil {
		return ErrUntrained
	}
	return nil
}

// AlignAll aligns many documents concurrently with the given number of
// workers (≤0 means GOMAXPROCS) and returns all alignments sorted by
// document ID then text mention. The pipeline is read-only during alignment,
// so one instance may serve all workers.
func (p *Pipeline) AlignAll(docs []*document.Document, workers int) []Alignment {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(docs) {
		workers = len(docs)
	}
	if workers <= 1 {
		var out []Alignment
		for _, doc := range docs {
			out = append(out, p.Align(doc)...)
		}
		SortAlignments(out)
		return out
	}

	results := make([][]Alignment, len(docs))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = p.Align(docs[i])
			}
		}()
	}
	for i := range docs {
		work <- i
	}
	close(work)
	wg.Wait()

	var out []Alignment
	for _, r := range results {
		out = append(out, r...)
	}
	SortAlignments(out)
	return out
}

// SortAlignments orders alignments by document ID then text mention — the
// order AlignAll and the runtime's ordered-batch collector promise regardless
// of worker count, so serial and parallel runs are bit-for-bit identical.
func SortAlignments(out []Alignment) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].DocID != out[j].DocID {
			return out[i].DocID < out[j].DocID
		}
		return out[i].TextIndex < out[j].TextIndex
	})
}
