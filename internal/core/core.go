package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"briq/internal/document"
	"briq/internal/feature"
	"briq/internal/filter"
	"briq/internal/forest"
	"briq/internal/graph"
	"briq/internal/obs"
	"briq/internal/quantity"
	"briq/internal/serve"
	"briq/internal/tagger"
)

// Stage names under which the pipeline reports timings to its Recorder. The
// first three are the per-document stages of Fig. 2; StageSegment covers
// page→document extraction and StageAlign the whole per-document run.
const (
	StageClassify     = "classify"      // ScorePairs: mention-pair feature scoring
	StageClassifyGate = "classify/gate" // pre-classifier gate inside classify
	StageFilter       = "filter"        // adaptive candidate filtering
	StageResolve      = "resolve/rwr"   // global resolution: graph build + random walks
	StageSegment      = "segment"       // HTML page → documents
	StageAlign        = "align"         // full per-document Align
)

// StageNames lists every stage the pipeline can report, in pipeline order,
// so recorders can pre-register the full schema before any traffic.
func StageNames() []string {
	return []string{StageSegment, StageClassify, StageClassifyGate, StageFilter, StageResolve, StageAlign}
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

// Pipeline is a configured BriQ instance, built by NewPipeline: a zero
// Pipeline has no segmenter or tagger and cannot align. Classifier may be
// nil, in which case pair scores fall back to the unweighted mean of the
// (masked) feature vector — the same uninformed combination the RWR-only
// baseline uses; a trained classifier is what turns the pipeline into full
// BriQ.
type Pipeline struct {
	Features     feature.Config
	Mask         feature.Mask
	Classifier   *forest.Forest
	Tagger       tagger.Tagger
	FilterConfig filter.Config
	GraphConfig  graph.Config
	Segmenter    *document.Segmenter

	// Recorder, when non-nil, receives per-stage latencies (StageClassify,
	// StageFilter, StageResolve, …) for every document aligned. It must be
	// set before the pipeline is shared across goroutines; after that the
	// pipeline is read-only and the Recorder itself is concurrency-safe.
	Recorder *obs.Recorder

	// Workers is the default fan-out width of internal/runtime's
	// AlignPerDoc and AlignCorpus, which briq.AlignCorpus, the batch paths
	// and ingestion align on. Zero or negative means GOMAXPROCS.
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

	// Sink, when non-nil, receives the documents the facade aligns and the
	// page entries it records — how the persistent store builds its corpus
	// and quantity index as documents are aligned. Cache hits are not
	// re-offered. It must be set before the pipeline is shared across
	// goroutines; clones share the same sink, and its implementation must be
	// concurrency-safe.
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
// candidate slice and the classify batch matrices.
type localScratch struct {
	candidates []filter.Candidate
	floors     []int32   // per-candidate vote floor of the batch walk
	feats      []float64 // row-major masked feature matrix, one row per candidate
	scores     []float64 // batch classifier output
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
// when f differs from the cached source. A nil cache, a nil forest or a
// forest with other than 2 classes (the pair classifier is binary, and only
// a binary batch walk stops early) yields nil, which callers treat as "use
// the reference path".
func (c *frozenCache) engineFor(f *forest.Forest) *forest.Frozen {
	if c == nil || f == nil || f.Classes() != 2 {
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
// goroutine. Models, configuration and the Recorder are shared with the
// original; the clone gets its own scratch buffers, kept warm across the
// documents it aligns. Setting the clone's Recorder field redirects its
// stage latencies without touching the original.
//
// Unlike a NewPipeline instance, a clone must NOT be used for concurrent
// Align calls: its scratch is single-owner by design. internal/runtime gives
// each of its goroutines exactly one clone.
func (p *Pipeline) Clone() *Pipeline {
	c := *p
	c.local = &localScratch{}
	return &c
}

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
	out, _, _ := p.scorePairs(context.Background(), doc, false, nil) // background ctx: cannot fail
	return out
}

// scorePairs is the classify stage. Ungated (ScorePairs, or NoClassifyGate)
// it builds and scores one candidate for every (text, table) mention pair,
// in text-then-table order. Gated (the internal align path) it first tags
// every text mention, then builds, in the same order, only the pairs that
// pass the filter's score-independent rules: a pair that filter.TagPruned
// or filter.UnitPruned drops is never built. Those rules drop a pair
// whatever its score, and the filter's mention-type vote, entropy and
// top-k read only survivors, so filter.ApplyTagged keeps the same pairs as
// on the full candidate set; its Dropped counter counts only the pairs
// built here. The tags are returned so the filter stage reuses them
// instead of tagging again; ungated calls return nil tags.
//
// Scoring runs through the frozen flat-array engine in batch — one masked
// feature matrix per text mention — unless ReferenceClassify is set or no
// engine is available, in which case the per-pair pointer-tree reference
// path runs. Both produce bit-identical scores (the equivalence suite pins
// this). One shortcut is gated-engine-only: step 2 reads the score of a
// pair for which filter.MinScore reports a minimum only to test it against
// that minimum, so the pair's forest walk stops as soon as its score can no
// longer reach it. Its score is then a partial vote count, still below the
// minimum, and step 2 drops it as before; a pair that reaches the minimum
// keeps its exact score.
//
// Features are extracted through tables, which the documents of one page
// share (nil: the document's own).
//
// ctx is checked once per text mention while building pairs and while
// scoring them; on cancellation scorePairs returns ctx.Err().
func (p *Pipeline) scorePairs(ctx context.Context, doc *document.Document, gated bool, tables *feature.Tables) ([]filter.Candidate, []quantity.Agg, error) {
	// A clone reuses its buffers across documents: safe because the filter
	// stage regroups candidates into fresh slices and nothing downstream
	// retains them past the Align call.
	local := p.local
	if local == nil {
		local = &localScratch{}
	}
	var engine *forest.Frozen
	if p.Classifier != nil && !p.ReferenceClassify {
		engine = p.frozen.engineFor(p.Classifier)
	}

	gated = gated && !p.NoClassifyGate
	var tags []quantity.Agg
	var out []filter.Candidate
	var floors []int32
	if gated {
		gateStart := time.Now()
		tags = tagger.TagAll(p.Tagger, doc)
		out = local.candidates[:0]
		if engine != nil {
			floors = local.floors[:0]
		}
		// The vote floor of the last minimum score seen: every value-far
		// pair has the same one.
		lastMin, lastFloor := math.NaN(), int32(0)
		for xi, tag := range tags {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			x := &doc.TextMentions[xi]
			for ti, tm := range doc.TableMentions {
				if filter.TagPruned(tm, tag) || filter.UnitPruned(x, tm) {
					continue
				}
				out = append(out, filter.Candidate{Text: xi, Table: ti})
				if engine == nil {
					continue
				}
				floor := int32(0)
				if minScore, ok := filter.MinScore(p.FilterConfig, x, tm); ok {
					if minScore != lastMin {
						lastMin, lastFloor = minScore, engine.VotesFor(minScore)
					}
					floor = lastFloor
				}
				floors = append(floors, floor)
			}
		}
		if engine != nil {
			local.floors = floors
		}
		p.Recorder.Observe(StageClassifyGate, time.Since(gateStart))
	} else {
		out = growCandidates(local.candidates, len(doc.TextMentions)*len(doc.TableMentions))
		for xi := range doc.TextMentions {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			for ti := range doc.TableMentions {
				out = append(out, filter.Candidate{Text: xi, Table: ti})
			}
		}
	}
	local.candidates = out

	ext := feature.NewExtractor(p.Features, doc, tables)
	m := p.Mask.Count()
	var full [feature.NumFeatures]float64
	// Rows of one text mention are contiguous; score them as one batch.
	for lo := 0; lo < len(out); {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		hi := lo + 1
		for hi < len(out) && out[hi].Text == out[lo].Text {
			hi++
		}
		rows := out[lo:hi]
		if engine == nil {
			// Reference path: per-pair vectors through Mask.Apply and the
			// pointer-tree walker (or the heuristic goodness mean).
			for i := range rows {
				c := &rows[i]
				c.Score = p.score(ext.VectorInto(c.Text, c.Table, full[:]))
			}
			lo = hi
			continue
		}
		// Batch path: project each row's vector onto the mask into one
		// row-major matrix, then walk all rows through the flat forest. The
		// projection appends kept features in index order — the same order
		// Mask.Apply produces.
		feats := local.feats
		if cap(feats) < len(rows)*m {
			feats = make([]float64, len(rows)*m)
		} else {
			feats = feats[:len(rows)*m]
		}
		for r, c := range rows {
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
		var rowFloors []int32
		if floors != nil {
			rowFloors = floors[lo:hi]
		}
		local.scores = engine.PositiveProbaBatch(feats, len(rows), rowFloors, local.scores)
		for r := range rows {
			rows[r].Score = local.scores[r]
		}
		local.feats = feats
		lo = hi
	}
	return out, tags, nil
}

// growCandidates returns buf emptied, with capacity for at least n
// candidates.
func growCandidates(buf []filter.Candidate, n int) []filter.Candidate {
	if cap(buf) < n {
		return make([]filter.Candidate, 0, n)
	}
	return buf[:0]
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
// when one is set. Without a deadline the only failure left is a document
// whose table mentions were never built (see AlignContext), a programming
// error on which Align panics.
func (p *Pipeline) Align(doc *document.Document) []Alignment {
	out, err := p.AlignContext(context.Background(), doc)
	if err != nil {
		panic("core: Align: " + err.Error())
	}
	return out
}

// AlignContext is Align with cooperative cancellation: the context is checked
// before each pipeline phase (classify → filter → resolve), once per text
// mention inside classify and before each random walk inside resolve, so a
// canceled run or a passed deadline stops the current document within one
// text mention's classify work or one walk. On cancellation it returns
// ctx.Err(). The filter stage and the graph build run to completion once
// started. A document with tables but no table mentions — one from
// Segmenter.SegmentPageKeys whose mentions BuildTableMentions never built —
// is refused with an error that names it.
func (p *Pipeline) AlignContext(ctx context.Context, doc *document.Document) ([]Alignment, error) {
	return p.alignContext(ctx, doc, nil)
}

// alignContext is AlignContext extracting features through tables (nil: the
// document's own).
func (p *Pipeline) alignContext(ctx context.Context, doc *document.Document, tables *feature.Tables) ([]Alignment, error) {
	alignStart := time.Now()
	kept, err := p.candidates(ctx, doc, tables)
	if err != nil {
		return nil, err
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	resolved, err := graph.Build(p.GraphConfig, doc, kept).Resolve(ctx)
	if err != nil {
		return nil, err
	}
	p.Recorder.Observe(StageResolve, time.Since(start))

	out := make([]Alignment, 0, len(resolved))
	for _, a := range resolved {
		out = append(out, p.toAlignment(doc, a.Text, a.Table, a.Score))
	}
	p.Recorder.Observe(StageAlign, time.Since(alignStart))
	return out, nil
}

// Candidates runs the classify and filter stages of the align path on one
// document and returns the candidate pairs the filter kept — the input of
// global resolution. It applies the pre-classifier gate (unless
// NoClassifyGate is set), reports StageClassify, StageClassifyGate and
// StageFilter to the Recorder, and checks ctx before each stage. It refuses
// a document with tables but no table mentions, as AlignContext does.
// AlignContext resolves these candidates with random walks; the experiment
// harness's ILP and greedy baselines resolve the same candidates their own
// way.
func (p *Pipeline) Candidates(ctx context.Context, doc *document.Document) ([]filter.Candidate, error) {
	return p.candidates(ctx, doc, nil)
}

func (p *Pipeline) candidates(ctx context.Context, doc *document.Document, tables *feature.Tables) ([]filter.Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A document from SegmentPageKeys has tables but no table mentions until
	// BuildTableMentions runs; aligned as it is, it would yield no candidate
	// and no alignment, silently.
	if len(doc.TableMentions) == 0 && len(doc.Tables) > 0 {
		return nil, fmt.Errorf("document %s has %d tables but no table mentions: build them with Segmenter.BuildTableMentions before aligning",
			doc.ID, len(doc.Tables))
	}
	start := time.Now()
	candidates, tags, err := p.scorePairs(ctx, doc, true, tables)
	if err != nil {
		return nil, err
	}
	p.Recorder.Observe(StageClassify, time.Since(start))

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
	p.Recorder.Observe(StageFilter, time.Since(start))
	return filtered.Kept, nil
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

// AlignPageContext aligns docs, documents of one page in page order, one
// after another through one feature.Tables, honoring ctx inside classify and
// resolve (see AlignContext). The documents share their tables, so each
// table, line set and table mention is prepared once for the page. It
// returns each document's alignments at the document's index. The documents
// must have their table mentions (see AlignContext).
func (p *Pipeline) AlignPageContext(ctx context.Context, docs []*document.Document) ([][]Alignment, error) {
	perDoc := make([][]Alignment, len(docs))
	tables := feature.NewTables()
	for i, doc := range docs {
		als, err := p.alignContext(ctx, doc, tables)
		if err != nil {
			return nil, fmt.Errorf("align %s: %w", doc.ID, err)
		}
		perDoc[i] = als
	}
	return perDoc, nil
}

// PageError reports why a segmented page has no document to align, wrapped
// with the page ID: ErrNoTables when it has no table with numeric cells,
// ErrNoMentions when tables exist but no paragraph carries quantity
// mentions. It is nil for a page with documents.
func PageError(pageID string, seg document.Segmentation) error {
	switch {
	case len(seg.Docs) > 0:
		return nil
	case seg.NumericTables == 0:
		return fmt.Errorf("page %s: %w", pageID, ErrNoTables)
	default:
		return fmt.Errorf("page %s: %w", pageID, ErrNoMentions)
	}
}

// ExtractionVersion names the behaviour of the code that turns a page into
// documents: cell parsing, unit propagation and virtual-cell generation
// (table.Table.Mentions). Document keys hash each table's source, not the
// mentions extracted from it, so a change to that code moves no key by
// itself. Fingerprint hashes this constant instead: bump it with any change
// that alters a document's TableMentions (TestExtractionPinned fails until
// then), which re-scopes every cache and store key.
const ExtractionVersion = 1

// Fingerprint returns a stable content hash of everything that determines
// the pipeline's output for a given input: stage configurations, the feature
// mask, the segmenter, the extraction version, and the full serialized
// models (classifier and learned tagger). It scopes serving-layer cache
// keys, so two pipelines share cached results iff they would compute
// identical alignments.
//
// The hash covers trained models byte-for-byte (via their Save encoding), so
// computing it on a trained pipeline costs a few milliseconds; callers cache
// it (the serve.Engine takes it once at construction).
func (p *Pipeline) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "briq-pipeline|features=%+v|mask=%v|filter=%+v|graph=%+v|extraction=%d",
		p.Features, p.Mask, p.FilterConfig, p.GraphConfig, ExtractionVersion)
	fmt.Fprintf(h, "|segmenter=%+v", *p.Segmenter)
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

// AlignAll aligns docs one after another and returns all alignments sorted
// by document ID then text mention. It is the serial reference the parallel
// corpus runs of internal/runtime must reproduce byte for byte.
func (p *Pipeline) AlignAll(docs []*document.Document) []Alignment {
	var out []Alignment
	for _, doc := range docs {
		out = append(out, p.Align(doc)...)
	}
	SortAlignments(out)
	return out
}

// SortAlignments orders alignments by document ID then text mention — the
// order AlignAll and runtime.AlignCorpus both return, so serial and
// parallel runs are bit-for-bit identical.
func SortAlignments(out []Alignment) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].DocID != out[j].DocID {
			return out[i].DocID < out[j].DocID
		}
		return out[i].TextIndex < out[j].TextIndex
	})
}
