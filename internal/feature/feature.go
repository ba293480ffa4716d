package feature

import (
	"strings"

	"briq/internal/document"
	"briq/internal/nlp"
	"briq/internal/quantity"
	"briq/internal/table"
)

// Feature indices into the vector produced by Vector. The names follow the
// paper's numbering.
const (
	F1SurfaceSim     = iota // Jaro-Winkler surface similarity
	F2LocalOverlap          // position-weighted local context word overlap
	F3GlobalOverlap         // global context word overlap
	F4LocalPhrases          // local noun-phrase overlap
	F5GlobalPhrases         // global noun-phrase overlap
	F6RelDiff               // relative difference of normalized values
	F7RawRelDiff            // relative difference of unnormalized values
	F8UnitMatch             // 4-valued unit match
	F9ScaleDiff             // difference in orders of magnitude
	F10PrecisionDiff        // difference in decimal precision
	F11Approx               // approximation indicator of the text mention
	F12AggMatch             // 4-valued aggregate-function match
	NumFeatures
)

// Names are human-readable feature names, index-aligned with the constants.
var Names = [NumFeatures]string{
	"f1_surface_sim", "f2_local_overlap", "f3_global_overlap",
	"f4_local_phrases", "f5_global_phrases", "f6_rel_diff",
	"f7_raw_rel_diff", "f8_unit_match", "f9_scale_diff",
	"f10_precision_diff", "f11_approx", "f12_agg_match",
}

// Four-valued match levels for f8 and f12 (§IV-B), encoded so that stronger
// agreement is larger.
const (
	StrongMismatch = 0.0
	WeakMismatch   = 1.0 / 3.0
	WeakMatch      = 2.0 / 3.0
	StrongMatch    = 1.0
)

// Config holds the tunable feature parameters (window size n, stepSize and
// stepWeight of the f2 position weighting, and the f12 cue window), tuned on
// the validation split in the experiments.
type Config struct {
	Window       int     // words before/after the text mention for f2 (default 8)
	StepSize     int     // distance step of the weight decay (default 2)
	StepWeight   float64 // weight lost per step (default 0.15)
	AggCueWindow int     // words around the mention scanned for aggregation cues in f12 (default 5)
}

// DefaultConfig returns the defaults used before tuning.
func DefaultConfig() Config {
	return Config{Window: 10, StepSize: 2, StepWeight: 0.12, AggCueWindow: 5}
}

// Group identifies a feature group for the ablation study (§VIII-B).
type Group int

// Feature groups of the ablation study.
const (
	GroupSurface  Group = iota // f1
	GroupContext               // f2, f3, f4, f5, f11, f12
	GroupQuantity              // f6, f7, f8, f9, f10
)

// GroupOf maps each feature index to its ablation group.
func GroupOf(feature int) Group {
	switch feature {
	case F1SurfaceSim:
		return GroupSurface
	case F6RelDiff, F7RawRelDiff, F8UnitMatch, F9ScaleDiff, F10PrecisionDiff:
		return GroupQuantity
	default:
		return GroupContext
	}
}

// Mask selects a feature subset; Mask[i] == true keeps feature i.
type Mask [NumFeatures]bool

// FullMask keeps every feature.
func FullMask() Mask {
	var m Mask
	for i := range m {
		m[i] = true
	}
	return m
}

// WithoutGroup returns a mask dropping every feature of the given group.
func WithoutGroup(g Group) Mask {
	m := FullMask()
	for i := 0; i < NumFeatures; i++ {
		if GroupOf(i) == g {
			m[i] = false
		}
	}
	return m
}

// Apply projects a full feature vector onto the mask's kept features.
func (m Mask) Apply(vec []float64) []float64 {
	out := make([]float64, 0, len(vec))
	for i, v := range vec {
		if m[i] {
			out = append(out, v)
		}
	}
	return out
}

// Goodness maps a feature value to a higher-is-better score in [0,1]. Most
// features are already goodness-oriented; the distance features (f6/f7
// relative differences, f9/f10 scale and precision differences) are
// inverted. Used by the uninformed uniform-weight scorer of the RWR-only
// baseline (§VII-D) and the classifier-free pipeline fallback.
func Goodness(feature int, v float64) float64 {
	switch feature {
	case F6RelDiff, F7RawRelDiff:
		return 1 - v
	case F9ScaleDiff, F10PrecisionDiff:
		return 1 / (1 + v)
	default:
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
}

// Count returns the number of kept features.
func (m Mask) Count() int {
	n := 0
	for _, keep := range m {
		if keep {
			n++
		}
	}
	return n
}

// Extractor computes feature vectors for all pairs of one document, caching
// per-mention context so that the cost is amortized over the (large) pair
// space. Its table side lives in a Tables, which the extractors of a page's
// documents share.
type Extractor struct {
	cfg Config
	doc *document.Document

	textLower  []nlp.Token // tokens of the document text
	globalBag  nlp.WeightedBag
	globalNPs  []string
	localIdx   []nlp.IndexedBag // per text mention, f2 left side
	sentenceOf []string         // sentence text per text mention
	localNPs   [][]string       // noun phrases of the mention's sentence
	mentionAgg [][]quantity.Agg // aggregations cued near each text mention
	textNorm   []string         // normalizeSurface of each text mention
	approxOf   []float64        // f11 value per text mention
	aggMatchOf [][]float64      // f12 value per text mention, indexed by Agg

	// tables prepares the table side and owns the interners the text side
	// goes through. tableData holds each table mention's prepared features,
	// nil until the mention's first VectorInto: the align path gates most
	// virtual mentions out before classification, so they are never
	// prepared at all. overlaps holds the f3/f5 overlaps of each of the
	// document's tables against its text.
	tables    *Tables
	tableData []*tableMentionData
	overlaps  map[*table.Table]globalOverlap

	// The interned forms make the per-pair f2 overlap a merge scan over
	// sorted int32 slices instead of map probing (see nlp.IndexedBag for the
	// bit-identity contract with WeightedBag), the f4 overlap count
	// arithmetic on phrase ids, and the f1 memo key a dense id pair.
	overlapScratch []float64
	localPhr       []nlp.IndexedPhrases // per text mention, f4 left side
	phraseMatched  []int32
	phraseTouched  []int32
	textNormID     []int32 // surface id of textNorm, per text mention

	// simMemo caches Jaro-Winkler scores by normalized surface pair: virtual
	// cells and repeated values make identical pairs common across the
	// document's pair space, and the similarity is a pure function of the
	// two strings. Keys are packed interned-surface id pairs — equal strings
	// get equal ids, so hits are exactly the string-pair hits.
	simMemo map[int64]float64
}

// globalOverlap holds the f3/f5 overlaps of one table's content against the
// document text: constants of the table, hoisted out of the pair loop.
type globalOverlap struct {
	words   float64
	phrases float64
}

// NewExtractor prepares an extractor for one document. Its table side is
// prepared in tables, which extractors of documents that share tables (the
// documents of one page) should share, one after another; nil gives the
// extractor a Tables of its own.
func NewExtractor(cfg Config, doc *document.Document, tables *Tables) *Extractor {
	if cfg.Window <= 0 {
		cfg = DefaultConfig()
	}
	if tables == nil {
		tables = NewTables()
	}
	e := &Extractor{
		cfg:     cfg,
		doc:     doc,
		tables:  tables,
		simMemo: make(map[int64]float64),
	}
	e.prepareText()
	e.prepareTables()
	return e
}

// surfaceSim is the memoized f1 kernel; aID/bID are the interned ids of a/b.
func (e *Extractor) surfaceSim(aID, bID int32, a, b string) float64 {
	k := int64(aID)<<32 | int64(uint32(bID))
	if v, ok := e.simMemo[k]; ok {
		return v
	}
	v := nlp.JaroWinkler(a, b)
	e.simMemo[k] = v
	return v
}

func (e *Extractor) prepareText() {
	e.textLower = nlp.Tokenize(e.doc.Text)
	e.globalBag = nlp.NewWeightedBag(wordsOf(e.textLower))
	e.globalNPs = nlp.NounPhrases(e.doc.Text)
	sentences := nlp.SplitSentences(e.doc.Text)

	e.localIdx = make([]nlp.IndexedBag, len(e.doc.TextMentions))
	e.localPhr = make([]nlp.IndexedPhrases, len(e.doc.TextMentions))
	e.textNormID = make([]int32, len(e.doc.TextMentions))
	e.sentenceOf = make([]string, len(e.doc.TextMentions))
	e.localNPs = make([][]string, len(e.doc.TextMentions))
	e.mentionAgg = make([][]quantity.Agg, len(e.doc.TextMentions))
	e.textNorm = make([]string, len(e.doc.TextMentions))
	e.approxOf = make([]float64, len(e.doc.TextMentions))
	e.aggMatchOf = make([][]float64, len(e.doc.TextMentions))

	for i, x := range e.doc.TextMentions {
		e.textNorm[i] = normalizeSurface(x.Surface)
		e.textNormID[i] = e.tables.surfaces.ID(e.textNorm[i])
		e.localIdx[i] = nlp.IndexBag(e.localBag(x.TokenPos), e.tables.words)
		si := x.Sentence
		if si >= 0 && si < len(sentences) {
			e.sentenceOf[i] = sentences[si]
			e.localNPs[i] = nlp.NounPhrases(sentences[si])
		}
		e.localPhr[i] = e.tables.phrases.IndexPhrases(e.localNPs[i])
		e.mentionAgg[i] = e.cuedAggs(x.TokenPos)
		e.approxOf[i] = float64(x.Approx) / 4
		// f12 only depends on the candidate through its Agg, so the whole
		// 4-valued table is computable per text mention.
		row := make([]float64, quantity.NumAggs)
		for a := range row {
			row[a] = aggMatch(e.mentionAgg[i], quantity.Agg(a))
		}
		e.aggMatchOf[i] = row
	}
}

// localBag builds the position-weighted bag of words around token position
// pos: weight(e) = 1 − (d/stepSize)·stepWeight, clamped at 0 (§IV-B, f2).
func (e *Extractor) localBag(pos int) nlp.WeightedBag {
	bag := nlp.WeightedBag{}
	for d := 1; d <= e.cfg.Window; d++ {
		w := 1 - float64(d)/float64(e.cfg.StepSize)*e.cfg.StepWeight
		if w <= 0 {
			break
		}
		for _, p := range []int{pos - d, pos + d} {
			if p < 0 || p >= len(e.textLower) {
				continue
			}
			tok := e.textLower[p]
			if k := tok.Kind(); k == nlp.KindWord || k == nlp.KindAlnum {
				lw := strings.ToLower(tok.Text)
				if !nlp.Stopword(lw) {
					bag.Add(lw, w)
				}
			}
		}
	}
	return bag
}

// cuedAggs collects the aggregations cued within AggCueWindow words of the
// token position.
func (e *Extractor) cuedAggs(pos int) []quantity.Agg {
	seen := map[quantity.Agg]bool{}
	var out []quantity.Agg
	for d := 1; d <= e.cfg.AggCueWindow; d++ {
		for _, p := range []int{pos - d, pos + d} {
			if p < 0 || p >= len(e.textLower) {
				continue
			}
			for _, agg := range quantity.CueAggs(strings.ToLower(e.textLower[p].Text)) {
				if !seen[agg] {
					seen[agg] = true
					out = append(out, agg)
				}
			}
		}
	}
	return out
}

// prepareTables computes the f3/f5 overlaps of each of the document's
// tables against its text (prepareText has already built the global bag and
// noun phrases), once instead of per pair. Table mentions are left to
// tableMention.
func (e *Extractor) prepareTables() {
	e.overlaps = make(map[*table.Table]globalOverlap, len(e.doc.Tables))
	for _, t := range e.doc.Tables {
		tc := e.tables.table(t)
		e.overlaps[t] = globalOverlap{
			words:   nlp.OverlapCoefficient(e.globalBag, tc.bag),
			phrases: nlp.PhraseOverlap(e.globalNPs, tc.nps),
		}
	}
	e.tableData = make([]*tableMentionData, len(e.doc.TableMentions))
}

// tableMention returns the prepared features of table mention ti, taking
// them from the Tables on first use.
func (e *Extractor) tableMention(ti int) *tableMentionData {
	td := e.tableData[ti]
	if td == nil {
		td = e.tables.mention(e.doc.TableMentions[ti])
		e.tableData[ti] = td
	}
	return td
}

func wordsOf(toks []nlp.Token) []string {
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		switch t.Kind() {
		case nlp.KindWord, nlp.KindNumber, nlp.KindAlnum:
			out = append(out, strings.ToLower(t.Text))
		}
	}
	return out
}

// Vector computes the full 12-feature vector for text mention xi and table
// mention ti (indices into the document's mention slices).
func (e *Extractor) Vector(xi, ti int) []float64 {
	return e.VectorInto(xi, ti, make([]float64, NumFeatures))
}

// VectorInto computes the same vector as Vector into dst, which must have
// length NumFeatures, and returns it. The first call for a table mention
// takes its features from the Tables, which prepares them on the first
// request of any extractor sharing it; after that it performs no
// allocation, so the classify hot loop can reuse one batch matrix across
// all pairs.
func (e *Extractor) VectorInto(xi, ti int, dst []float64) []float64 {
	x := &e.doc.TextMentions[xi]
	tm := e.doc.TableMentions[ti]
	td := e.tableMention(ti)

	// f1: surface form similarity on the normalized strings (both sides
	// normalized once per mention, the similarity memoized per string pair).
	dst[F1SurfaceSim] = e.surfaceSim(e.textNormID[xi], td.normID, e.textNorm[xi], td.normSurface)

	// f2/f3: weighted word overlap local and global (f3 is a per-table
	// constant, hoisted into overlaps). f2 runs on the interned sorted-id
	// bags with precomputed totals — bit-identical to OverlapCoefficient on
	// the underlying WeightedBags, pinned by cache_test.go.
	global := e.overlaps[tm.Table]
	dst[F2LocalOverlap], e.overlapScratch = nlp.IndexedOverlap(e.localIdx[xi], td.local.bag, e.overlapScratch)
	dst[F3GlobalOverlap] = global.words

	// f4/f5: noun-phrase overlap local and global (f5 hoisted like f3). f4
	// runs on the interned phrase multisets — exactly PhraseOverlap on the
	// underlying lists, pinned by cache_test.go.
	dst[F4LocalPhrases], e.phraseMatched, e.phraseTouched = nlp.PhraseOverlapIndexed(
		e.tables.phrases, e.localPhr[xi], td.local.phrases, e.phraseMatched, e.phraseTouched)
	dst[F5GlobalPhrases] = global.phrases

	// f6/f7: relative numeric distance, normalized and raw.
	dst[F6RelDiff] = quantity.RelativeDifference(x.Value, tm.Value)
	dst[F7RawRelDiff] = quantity.RelativeDifference(x.RawValue, td.rawValue)

	// f8: unit match.
	dst[F8UnitMatch] = unitMatch(x.Unit, tm.Unit)

	// f9/f10: scale and precision differences (table side precomputed).
	dst[F9ScaleDiff] = absInt(x.Scale - td.scale)
	dst[F10PrecisionDiff] = absInt(x.Precision - td.precision)

	// f11: approximation indicator, ordinal (per text mention, precomputed).
	dst[F11Approx] = e.approxOf[xi]

	// f12: aggregate function match (per text mention × Agg, precomputed).
	dst[F12AggMatch] = e.aggMatchOf[xi][tm.Agg]

	return dst
}

// normalizeSurface lowercases and strips grouping commas and spaces so that
// "3,263" and "3263" compare equal under Jaro-Winkler while decimal points
// and unit symbols still matter.
func normalizeSurface(s string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(s) {
		if r == ',' || r == ' ' {
			continue
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// unitMatch implements the 4-valued f8: strong match (both units specified
// and equal), weak match (both unspecified), weak mismatch (exactly one
// specified), strong mismatch (both specified, different).
func unitMatch(xUnit, tUnit string) float64 {
	switch {
	case xUnit != "" && tUnit != "":
		if quantity.UnitsCompatible(xUnit, tUnit) {
			return StrongMatch
		}
		return StrongMismatch
	case xUnit == "" && tUnit == "":
		return WeakMatch
	default:
		return WeakMismatch
	}
}

// aggMatch implements the 4-valued f12: comparing the aggregations cued in
// the text against the table mention's aggregation. With no cues at all, a
// single-cell pairing is a weak match and a virtual pairing a weak mismatch;
// with cues, membership decides strong match vs (strong/weak) mismatch.
func aggMatch(cued []quantity.Agg, agg quantity.Agg) float64 {
	if len(cued) == 0 {
		if agg == quantity.SingleCell {
			return WeakMatch
		}
		return WeakMismatch
	}
	for _, a := range cued {
		if a == agg {
			return StrongMatch
		}
	}
	if agg == quantity.SingleCell {
		return WeakMismatch
	}
	return StrongMismatch
}

func absInt(d int) float64 {
	if d < 0 {
		d = -d
	}
	return float64(d)
}
