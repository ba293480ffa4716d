package experiment

import (
	"fmt"
	"sort"

	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/feature"
	"briq/internal/forest"
	"briq/internal/quantity"
	"briq/internal/tagger"
)

// TypeCounts is a positive/negative sample breakdown for one mention type
// (one row of Table I).
type TypeCounts struct {
	Pos, Neg int
}

// TrainingData is the classifier training set built from gold alignments
// plus hardest negatives (§VII-B).
type TrainingData struct {
	Samples []forest.Sample
	ByType  map[quantity.Agg]TypeCounts
}

// NegativesPerPositive is the paper's negative sampling rate.
const NegativesPerPositive = 5

// BuildTrainingData constructs classifier samples from the gold alignments
// of the given documents: each gold pair is a positive; the 5 table mentions
// most similar to the positive (approximately matching values and context,
// including virtual cells) become negatives. Feature vectors are masked.
func BuildTrainingData(c *corpus.Corpus, docs []*document.Document, featCfg feature.Config, mask feature.Mask) TrainingData {
	td := TrainingData{ByType: make(map[quantity.Agg]TypeCounts)}
	for _, doc := range docs {
		golds := c.GoldFor(doc.ID)
		if len(golds) == 0 {
			continue
		}
		ext := feature.NewExtractor(featCfg, doc)
		keyToIdx := make(map[string]int, len(doc.TableMentions))
		for ti, tm := range doc.TableMentions {
			keyToIdx[tm.Key()] = ti
		}
		for _, g := range golds {
			goldTi, ok := keyToIdx[g.TableKey]
			if !ok {
				continue
			}
			full := ext.Vector(g.TextIndex, goldTi)
			td.Samples = append(td.Samples, forest.Sample{Features: mask.Apply(full), Label: 1})
			tc := td.ByType[g.Agg]
			tc.Pos++
			td.ByType[g.Agg] = tc

			for _, ti := range hardestNegatives(doc, g.TextIndex, goldTi, NegativesPerPositive) {
				negVec := ext.Vector(g.TextIndex, ti)
				td.Samples = append(td.Samples, forest.Sample{Features: mask.Apply(negVec), Label: 0})
				agg := doc.TableMentions[ti].Agg
				nc := td.ByType[agg]
				nc.Neg++
				td.ByType[agg] = nc
			}
		}
	}
	return td
}

// hardestNegatives picks the n non-gold table mentions with values closest
// to the text mention — "the table cells with the highest similarity to the
// positive sample (i.e., approximately the same values and similar
// context); these included many virtual cells" (§VII-B).
func hardestNegatives(doc *document.Document, xi, goldTi, n int) []int {
	x := doc.TextMentions[xi]
	type scored struct {
		ti   int
		dist float64
	}
	cands := make([]scored, 0, len(doc.TableMentions))
	for ti, tm := range doc.TableMentions {
		if ti == goldTi {
			continue
		}
		cands = append(cands, scored{ti, quantity.RelativeDifference(x.Value, tm.Value)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].ti < cands[j].ti
	})
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].ti
	}
	return out
}

// BuildTaggerExamples derives labeled tagger instances from the gold
// standard: the label of a text mention is the aggregation of its gold table
// mention; mentions without gold become single-cell examples only when they
// exactly match a cell (keeping the tagger's training clean).
func BuildTaggerExamples(c *corpus.Corpus, docs []*document.Document) []tagger.Example {
	var out []tagger.Example
	for _, doc := range docs {
		byText := make(map[int]quantity.Agg)
		for _, g := range c.GoldFor(doc.ID) {
			if int(g.Agg) < tagger.NumClasses {
				byText[g.TextIndex] = g.Agg
			}
		}
		// Emit in text-mention order, not map order: the example sequence
		// feeds the forest's bootstrap sampler, so iteration order must be
		// deterministic for identical seeds to train identical models.
		prepared := tagger.Prepare(doc)
		for xi := range doc.TextMentions {
			if agg, ok := byText[xi]; ok {
				out = append(out, tagger.Example{Features: prepared.Features(xi), Label: agg})
			}
		}
	}
	return out
}

// TrainOptions configures end-to-end training.
type TrainOptions struct {
	FeatureConfig feature.Config
	Mask          feature.Mask
	Forest        forest.Config
	TaggerForest  forest.Config
	Seed          int64
}

// DefaultTrainOptions returns the configuration used by the experiments.
func DefaultTrainOptions(seed int64) TrainOptions {
	return TrainOptions{
		FeatureConfig: feature.DefaultConfig(),
		Mask:          feature.FullMask(),
		Forest:        forest.Config{Trees: 80, MaxDepth: 12, MinLeaf: 2, Seed: seed},
		TaggerForest:  forest.Config{Trees: 40, MaxDepth: 10, MinLeaf: 2, Seed: seed + 1},
		Seed:          seed,
	}
}

// Trained bundles the models trained on a corpus split.
type Trained struct {
	Classifier *forest.Forest
	Tagger     *tagger.Learned
	Data       TrainingData
	Opts       TrainOptions
}

// Train fits the mention-pair classifier and the text-mention tagger on the
// training documents.
func Train(c *corpus.Corpus, train []*document.Document, opts TrainOptions) (*Trained, error) {
	data := BuildTrainingData(c, train, opts.FeatureConfig, opts.Mask)
	if len(data.Samples) == 0 {
		return nil, fmt.Errorf("experiment: no training samples (no gold in training split)")
	}
	cls, err := forest.Train(data.Samples, 2, opts.Forest)
	if err != nil {
		return nil, fmt.Errorf("experiment: classifier: %w", err)
	}
	tagExamples := BuildTaggerExamples(c, train)
	tg, err := tagger.Train(tagExamples, opts.TaggerForest)
	if err != nil {
		return nil, fmt.Errorf("experiment: tagger: %w", err)
	}
	return &Trained{Classifier: cls, Tagger: tg, Data: data, Opts: opts}, nil
}
