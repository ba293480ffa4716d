// Package tagger implements the text-mention tagger of §V-A: predicting,
// from local features only, whether a text mention refers to a single cell
// or to a sum, difference, percentage or change-ratio aggregate. The tagger
// drives the first pruning step of adaptive filtering and is deliberately
// tuned for high precision — a wrong aggregate tag prunes good candidates,
// while single-cell pairs are never pruned on its account.
package tagger

import (
	"fmt"
	"strings"

	"briq/internal/document"
	"briq/internal/forest"
	"briq/internal/nlp"
	"briq/internal/quantity"
)

// Labels is the tagger's class set, index-aligned with quantity.Agg:
// single-cell, sum, diff, percent, ratio.
var Labels = []quantity.Agg{
	quantity.SingleCell, quantity.Sum, quantity.Diff, quantity.Percent, quantity.Ratio,
}

// NumClasses is the number of tagger classes.
const NumClasses = 5

// taggedAggs are the aggregations the tagger distinguishes; cue counts are
// computed for each in three scopes.
var taggedAggs = []quantity.Agg{quantity.Sum, quantity.Diff, quantity.Percent, quantity.Ratio}

// Feature vector layout (§V-A): approximation indicator; per-aggregation cue
// counts in immediate (10-word window), local (sentence) and global
// (paragraph) scope; scale; precision; unit class; exact-match count across
// the document's tables.
const (
	fApprox        = 0
	fCueBase       = 1                 // 4 aggs × 3 scopes
	fScale         = fCueBase + 4*3    // 13
	fPrecision     = fScale + 1        // 14
	fUnit          = fPrecision + 1    // 15
	fExactMatches  = fUnit + 1         // 16
	NumTagFeatures = fExactMatches + 1 // 17
	immediateScope = 10                // words around the mention
)

// Prepared is one document made ready for tagging: the parts of the
// feature vector that depend on the document and not on the mention,
// computed once. Features reads them for any text mention of the document,
// so tagging a document costs work linear in its size.
type Prepared struct {
	Doc *document.Document

	toks []nlp.Token // tokens of the paragraph
	// sentenceCues[s] and paraCues count cue words per tagged aggregation
	// in sentence s of the paragraph and in the whole paragraph.
	sentenceCues [][4]int
	paraCues     [4]int
	// cellValues counts the single-cell table mentions per value.
	cellValues map[float64]int
}

// Prepare tokenizes doc's paragraph, splits its sentences, counts their cue
// words and counts its single-cell values.
func Prepare(doc *document.Document) *Prepared {
	p := &Prepared{
		Doc:        doc,
		toks:       nlp.Tokenize(doc.Text),
		cellValues: make(map[float64]int),
	}
	for _, w := range nlp.Words(doc.Text) {
		countCues(&p.paraCues, w)
	}
	sentences := nlp.SplitSentences(doc.Text)
	p.sentenceCues = make([][4]int, len(sentences))
	for i, sent := range sentences {
		for _, w := range nlp.Words(sent) {
			countCues(&p.sentenceCues[i], w)
		}
	}
	for _, tm := range doc.TableMentions {
		if !tm.IsVirtual() {
			// NaN never equals a value, and each NaN key is distinct, so
			// a lookup counts exactly the cells == would match.
			p.cellValues[tm.Value]++
		}
	}
	return p
}

// Features computes the tagger feature vector for text mention xi of the
// prepared document.
func (p *Prepared) Features(xi int) []float64 {
	x := &p.Doc.TextMentions[xi]
	vec := make([]float64, NumTagFeatures)

	vec[fApprox] = float64(x.Approx) / 4

	// Immediate scope: window of ±immediateScope words around the mention.
	var immediate [4]int
	lo, hi := x.TokenPos-immediateScope, x.TokenPos+immediateScope
	if lo < 0 {
		lo = 0
	}
	if hi >= len(p.toks) {
		hi = len(p.toks) - 1
	}
	for i := lo; i <= hi; i++ {
		if i == x.TokenPos {
			continue
		}
		switch p.toks[i].Kind() {
		case nlp.KindWord, nlp.KindAlnum:
			countCues(&immediate, strings.ToLower(p.toks[i].Text))
		}
	}
	setCues(vec, 0, &immediate)
	// Local scope: the mention's sentence.
	if x.Sentence >= 0 && x.Sentence < len(p.sentenceCues) {
		setCues(vec, 1, &p.sentenceCues[x.Sentence])
	}
	// Global scope: the whole paragraph.
	setCues(vec, 2, &p.paraCues)

	vec[fScale] = float64(x.Scale)
	vec[fPrecision] = float64(x.Precision)
	vec[fUnit] = float64(quantity.ClassOf(x.Unit))
	vec[fExactMatches] = float64(p.cellValues[x.Value])
	return vec
}

// countCues adds one count per aggregation that word cues to counts,
// indexed like taggedAggs.
func countCues(counts *[4]int, word string) {
	for _, agg := range quantity.CueAggs(word) {
		for i, ta := range taggedAggs {
			if agg == ta {
				counts[i]++
			}
		}
	}
}

// setCues writes the per-aggregation cue counts of one scope (0=immediate,
// 1=local, 2=global) into vec.
func setCues(vec []float64, scope int, counts *[4]int) {
	for i, n := range counts {
		vec[fCueBase+i*3+scope] = float64(n)
	}
}

// Tagger predicts the aggregation label of text mention xi of a prepared
// document.
type Tagger interface {
	Tag(p *Prepared, xi int) quantity.Agg
}

// TagAll tags every text mention of doc, preparing it once: the result's
// xi-th entry is t.Tag(Prepare(doc), xi).
func TagAll(t Tagger, doc *document.Document) []quantity.Agg {
	p := Prepare(doc)
	tags := make([]quantity.Agg, len(doc.TextMentions))
	for xi := range tags {
		tags[xi] = t.Tag(p, xi)
	}
	return tags
}

// Rule is a deterministic cue-count tagger used before a learned model is
// available (and as a baseline): it predicts the aggregation with the most
// immediate+local cues, requires at least one cue, and defers to single-cell
// when the mention has an exact match in a table and cue evidence is weak.
type Rule struct{}

// Tag implements Tagger.
func (Rule) Tag(p *Prepared, xi int) quantity.Agg {
	vec := p.Features(xi)
	best := quantity.SingleCell
	bestCount := 0.0
	for i, agg := range taggedAggs {
		// Immediate cues count double: proximity is the strongest signal.
		count := 2*vec[fCueBase+i*3] + vec[fCueBase+i*3+1]
		if count > bestCount {
			best, bestCount = agg, count
		}
	}
	if bestCount == 0 {
		return quantity.SingleCell
	}
	// High-precision guard: an exact single-cell match plus only weak cue
	// evidence (at most one immediate cue) means the mention most likely
	// names the cell itself.
	if vec[fExactMatches] > 0 && bestCount <= 2 {
		return quantity.SingleCell
	}
	return best
}

// Example is one labeled training instance for the learned tagger.
type Example struct {
	Features []float64
	Label    quantity.Agg
}

// Learned is a Random-Forest-based tagger trained on a small labeled set
// withheld from all other components (§V-A).
type Learned struct {
	forest *forest.Forest
}

// Train fits the learned tagger.
func Train(examples []Example, cfg forest.Config) (*Learned, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("tagger: no training examples")
	}
	samples := make([]forest.Sample, len(examples))
	for i, ex := range examples {
		cls := int(ex.Label)
		if cls < 0 || cls >= NumClasses {
			return nil, fmt.Errorf("tagger: example %d has label %v outside the tag set", i, ex.Label)
		}
		samples[i] = forest.Sample{Features: ex.Features, Label: cls}
	}
	f, err := forest.Train(samples, NumClasses, cfg)
	if err != nil {
		return nil, fmt.Errorf("tagger: %w", err)
	}
	return &Learned{forest: f}, nil
}

// Tag implements Tagger.
func (l *Learned) Tag(p *Prepared, xi int) quantity.Agg {
	return quantity.Agg(l.forest.Predict(p.Features(xi)))
}

// TagProba returns the class distribution over Labels.
func (l *Learned) TagProba(p *Prepared, xi int) []float64 {
	return l.forest.PredictProba(p.Features(xi))
}

// Forest exposes the underlying model for serialization.
func (l *Learned) Forest() *forest.Forest { return l.forest }

// FromForest reconstructs a learned tagger from a deserialized forest,
// validating its shape against the tagger's feature and class layout.
func FromForest(f *forest.Forest) (*Learned, error) {
	if f.Classes() != NumClasses {
		return nil, fmt.Errorf("tagger: model has %d classes, want %d", f.Classes(), NumClasses)
	}
	if f.NumFeatures() != NumTagFeatures {
		return nil, fmt.Errorf("tagger: model has %d features, want %d", f.NumFeatures(), NumTagFeatures)
	}
	return &Learned{forest: f}, nil
}
