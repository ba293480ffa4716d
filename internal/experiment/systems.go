package experiment

import (
	"context"
	"math"
	"sort"

	"briq/internal/core"
	"briq/internal/document"
	"briq/internal/feature"
	"briq/internal/filter"
	"briq/internal/graph"
)

// Prediction is one system output: text mention xi of a document aligned to
// the table mention with the given key.
type Prediction struct {
	DocID     string
	TextIndex int
	TableKey  string
	Score     float64
}

// System aligns documents: BriQ, the baselines of §VII-D (RFOnly, RWROnly,
// QKBSystem) and the resolution baselines (ILP, Greedy).
type System interface {
	Name() string
	Predict(doc *document.Document) []Prediction
}

// BriQ is the full pipeline: trained classifier prior, learned tagger,
// adaptive filtering and global resolution by random walks (Algorithm 1).
type BriQ struct {
	P *core.Pipeline

	// name overrides the reported system name; empty means "BriQ". The
	// resolver comparison labels it BriQ/rwr, next to BriQ/ilp and
	// BriQ/greedy.
	name string
}

// NewBriQ assembles the full system from trained models.
func NewBriQ(tr *Trained) *BriQ {
	p := core.NewPipeline()
	p.Features = tr.Opts.FeatureConfig
	p.Mask = tr.Opts.Mask
	p.Classifier = tr.Classifier
	p.Tagger = tr.Tagger
	return &BriQ{P: p}
}

// Name implements System.
func (b *BriQ) Name() string {
	if b.name != "" {
		return b.name
	}
	return "BriQ"
}

// Predict implements System.
func (b *BriQ) Predict(doc *document.Document) []Prediction {
	als := b.P.Align(doc)
	out := make([]Prediction, len(als))
	for i, a := range als {
		out[i] = Prediction{DocID: doc.ID, TextIndex: a.TextIndex, TableKey: a.TableKey, Score: a.Score}
	}
	return out
}

// RFOnly is the classifier-only baseline: for each text mention, the
// top-ranked mention pair by classifier score is chosen (§VII-D), subject to
// a minimum-confidence threshold so unalignable mentions can abstain.
type RFOnly struct {
	P         *core.Pipeline
	Threshold float64
}

// NewRFOnly builds the classifier-only baseline from trained models.
func NewRFOnly(tr *Trained) *RFOnly {
	p := core.NewPipeline()
	p.Features = tr.Opts.FeatureConfig
	p.Mask = tr.Opts.Mask
	p.Classifier = tr.Classifier
	return &RFOnly{P: p, Threshold: 0.5}
}

// Name implements System.
func (*RFOnly) Name() string { return "RF" }

// Predict implements System.
func (r *RFOnly) Predict(doc *document.Document) []Prediction {
	cands := r.P.ScorePairs(doc)
	best := make(map[int]filter.Candidate)
	for _, c := range cands {
		if cur, ok := best[c.Text]; !ok || c.Score > cur.Score ||
			(c.Score == cur.Score && c.Table < cur.Table) {
			best[c.Text] = c
		}
	}
	xis := make([]int, 0, len(best))
	for xi := range best {
		xis = append(xis, xi)
	}
	sort.Ints(xis)
	var out []Prediction
	for _, xi := range xis {
		c := best[xi]
		if c.Score < r.Threshold {
			continue
		}
		out = append(out, Prediction{
			DocID: doc.ID, TextIndex: xi,
			TableKey: doc.TableMentions[c.Table].Key(), Score: c.Score,
		})
	}
	return out
}

// RWROnly is the random-walk-only baseline: no trained classifier, no
// pruning. Text-table edges connect every pair, weighted by the uniform
// combination of all (masked) features; resolution uses the walk
// probabilities alone (§VII-D).
type RWROnly struct {
	Features feature.Config
	Mask     feature.Mask
	Graph    graph.Config
}

// NewRWROnly builds the baseline with default configuration.
func NewRWROnly(featCfg feature.Config, mask feature.Mask) *RWROnly {
	g := graph.DefaultConfig()
	// No classifier prior: overall score is the walk probability only. With
	// no pruning the walk mass spreads over every pair, so acceptance is
	// effectively argmax with a tiny floor, and table-table coherence edges
	// are damped so hub nodes (virtual cells touching whole lines) do not
	// swamp the uninformed text-table weights.
	g.Alpha, g.Beta = 1, 0
	g.Epsilon = 1e-4
	g.TableTableW = 0.3
	return &RWROnly{Features: featCfg, Mask: mask, Graph: g}
}

// Name implements System.
func (*RWROnly) Name() string { return "RWR" }

// Predict implements System.
func (r *RWROnly) Predict(doc *document.Document) []Prediction {
	ext := feature.NewExtractor(r.Features, doc)
	var cands []filter.Candidate
	for xi := range doc.TextMentions {
		for ti := range doc.TableMentions {
			full := ext.Vector(xi, ti)
			var total float64
			n := 0
			for f, v := range full {
				if !r.Mask[f] {
					continue
				}
				total += feature.Goodness(f, v)
				n++
			}
			score := 0.0
			if n > 0 {
				score = total / float64(n)
			}
			// Normalize the narrow mean-goodness band into usable
			// graph-traversal probabilities (§VII-D): a power sharpening
			// spreads 0.6-vs-0.4 into an order-of-magnitude gap, so a
			// mention's direct edges outweigh the multi-hop inflow that
			// high-degree virtual-cell hubs would otherwise accumulate.
			score = math.Pow(score, 8)
			cands = append(cands, filter.Candidate{Text: xi, Table: ti, Score: score})
		}
	}
	resolved, _ := graph.Build(r.Graph, doc, cands).Resolve(context.Background()) // background ctx: cannot fail
	var out []Prediction
	for _, a := range resolved {
		out = append(out, Prediction{
			DocID: doc.ID, TextIndex: a.Text,
			TableKey: doc.TableMentions[a.Table].Key(), Score: a.Score,
		})
	}
	return out
}
