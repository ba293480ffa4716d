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

// Features computes the tagger feature vector for text mention xi of doc.
func Features(doc *document.Document, xi int) []float64 {
	x := &doc.TextMentions[xi]
	vec := make([]float64, NumTagFeatures)

	vec[fApprox] = float64(x.Approx) / 4

	toks := nlp.Tokenize(doc.Text)
	sentences := nlp.SplitSentences(doc.Text)

	// Immediate scope: window of ±immediateScope words around the mention.
	countCues(vec, 0, immediateWords(toks, x.TokenPos))
	// Local scope: the mention's sentence.
	if x.Sentence >= 0 && x.Sentence < len(sentences) {
		countCues(vec, 1, nlp.Words(sentences[x.Sentence]))
	}
	// Global scope: the whole paragraph.
	countCues(vec, 2, nlp.Words(doc.Text))

	vec[fScale] = float64(x.Scale)
	vec[fPrecision] = float64(x.Precision)
	vec[fUnit] = float64(quantity.ClassOf(x.Unit))

	exact := 0
	for _, tm := range doc.TableMentions {
		if !tm.IsVirtual() && tm.Value == x.Value {
			exact++
		}
	}
	vec[fExactMatches] = float64(exact)
	return vec
}

// countCues adds the per-aggregation cue counts for one scope (0=immediate,
// 1=local, 2=global) into vec.
func countCues(vec []float64, scope int, words []string) {
	for _, w := range words {
		for _, agg := range quantity.CueAggs(w) {
			for i, ta := range taggedAggs {
				if agg == ta {
					vec[fCueBase+i*3+scope]++
				}
			}
		}
	}
}

func immediateWords(toks []nlp.Token, pos int) []string {
	lo := pos - immediateScope
	if lo < 0 {
		lo = 0
	}
	hi := pos + immediateScope
	if hi >= len(toks) {
		hi = len(toks) - 1
	}
	var out []string
	for i := lo; i <= hi; i++ {
		if i == pos {
			continue
		}
		switch toks[i].Kind() {
		case nlp.KindWord, nlp.KindAlnum:
			out = append(out, strings.ToLower(toks[i].Text))
		}
	}
	return out
}

// Tagger predicts the aggregation label of a text mention.
type Tagger interface {
	Tag(doc *document.Document, xi int) quantity.Agg
}

// TagAll tags every text mention of doc: the result's xi-th entry is
// t.Tag(doc, xi).
func TagAll(t Tagger, doc *document.Document) []quantity.Agg {
	tags := make([]quantity.Agg, len(doc.TextMentions))
	for xi := range tags {
		tags[xi] = t.Tag(doc, xi)
	}
	return tags
}

// Rule is a deterministic cue-count tagger used before a learned model is
// available (and as a baseline): it predicts the aggregation with the most
// immediate+local cues, requires at least one cue, and defers to single-cell
// when the mention has an exact match in a table and cue evidence is weak.
type Rule struct{}

// Tag implements Tagger.
func (Rule) Tag(doc *document.Document, xi int) quantity.Agg {
	vec := Features(doc, xi)
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
func (l *Learned) Tag(doc *document.Document, xi int) quantity.Agg {
	return quantity.Agg(l.forest.Predict(Features(doc, xi)))
}

// TagProba returns the class distribution over Labels.
func (l *Learned) TagProba(doc *document.Document, xi int) []float64 {
	return l.forest.PredictProba(Features(doc, xi))
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
