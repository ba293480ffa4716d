package core_test

// Corpus-level equivalence suite for the classify stage rewrite: the frozen
// flat-array batch engine and the pre-classifier gate must be observationally
// identical to the per-pair pointer-tree reference — bit-identical scores
// from ScorePairs, byte-identical alignments from Align — across every
// document of a trained corpus. Randomized forest-level equivalence lives in
// internal/forest/frozen_test.go; this file pins the end-to-end contract the
// pipeline depends on.

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/experiment"
	"briq/internal/filter"
	"briq/internal/quantity"
	"briq/internal/tagger"
)

var (
	eqOnce    sync.Once
	eqCorpus  *corpus.Corpus
	eqTrained *core.Pipeline
	eqErr     error
)

// eqFixture builds a small trained corpus shared by the equivalence tests;
// training dominates the suite's cost, so it runs once.
func eqFixture(t *testing.T) (*corpus.Corpus, *core.Pipeline) {
	t.Helper()
	eqOnce.Do(func() {
		cfg := corpus.TableSConfig(17)
		cfg.Pages = 60
		eqCorpus = corpus.Generate(cfg)
		split := experiment.SplitCorpus(eqCorpus, 7)
		trained, err := experiment.Train(eqCorpus, split.Train, experiment.DefaultTrainOptions(3))
		if err != nil {
			eqErr = err
			return
		}
		eqTrained = experiment.NewBriQ(trained).P
	})
	if eqErr != nil {
		t.Fatal(eqErr)
	}
	return eqCorpus, eqTrained
}

// referenceCopy returns a shallow copy of p that classifies through the
// per-pair pointer-tree reference path.
func referenceCopy(p *core.Pipeline) *core.Pipeline {
	ref := *p
	ref.ReferenceClassify = true
	return &ref
}

// TestFrozenClassifyBitIdenticalOnCorpus: the batch engine's ScorePairs
// scores equal the reference path's bit for bit on every mention×candidate
// pair of every corpus document, with the trained seed forest.
func TestFrozenClassifyBitIdenticalOnCorpus(t *testing.T) {
	c, p := eqFixture(t)
	ref := referenceCopy(p)
	pairs := 0
	for _, doc := range c.Docs {
		got := p.ScorePairs(doc)
		want := ref.ScorePairs(doc)
		if len(got) != len(want) {
			t.Fatalf("doc %s: %d candidates batched, %d reference", doc.ID, len(got), len(want))
		}
		for i := range got {
			if got[i].Text != want[i].Text || got[i].Table != want[i].Table {
				t.Fatalf("doc %s candidate %d: pair (%d,%d) != (%d,%d)",
					doc.ID, i, got[i].Text, got[i].Table, want[i].Text, want[i].Table)
			}
			if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("doc %s pair (%d,%d): batched score %v (bits %x) != reference %v (bits %x)",
					doc.ID, got[i].Text, got[i].Table,
					got[i].Score, math.Float64bits(got[i].Score),
					want[i].Score, math.Float64bits(want[i].Score))
			}
		}
		pairs += len(got)
	}
	if pairs == 0 {
		t.Fatal("corpus produced no mention pairs; equivalence vacuous")
	}
	t.Logf("verified %d pairs across %d documents", pairs, len(c.Docs))
}

// TestHeuristicClassifyBitIdentical: the untrained (heuristic goodness-mean)
// configuration takes the reference path by construction; pin that its
// scores are unchanged by the rewrite's buffer reuse.
func TestHeuristicClassifyBitIdentical(t *testing.T) {
	c, _ := eqFixture(t)
	p := core.NewPipeline()
	ref := referenceCopy(p)
	for _, doc := range c.Docs[:min(len(c.Docs), 10)] {
		got := p.ScorePairs(doc)
		want := ref.ScorePairs(doc)
		for i := range got {
			if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("doc %s pair %d: heuristic score %v != reference %v",
					doc.ID, i, got[i].Score, want[i].Score)
			}
		}
	}
}

// gateablePairs counts the pairs of doc the pre-classifier gate skips, by
// reason: unit-incompatible (units specified on both sides and incompatible)
// and tag-pruned (a virtual table mention whose aggregation differs from the
// text mention's tag). A pair can be both.
func gateablePairs(doc *document.Document, tags []quantity.Agg) (unit, tag int) {
	for xi := range doc.TextMentions {
		x := &doc.TextMentions[xi]
		for _, tm := range doc.TableMentions {
			if x.Unit != "" && tm.Unit != "" && !quantity.UnitsCompatible(x.Unit, tm.Unit) {
				unit++
			}
			if tm.IsVirtual() && tm.Agg != tags[xi] {
				tag++
			}
		}
	}
	return unit, tag
}

// earlyStops counts the rows of the gated classify stage whose score is
// below the exact one: each is a row with a minimum score (filter.MinScore)
// whose forest walk stopped early. It fails t unless every such row has a
// minimum that its exact score is below, and every other row scores
// bit-identically.
func earlyStops(t *testing.T, p *core.Pipeline, doc *document.Document) int {
	t.Helper()
	exact := p.ScorePairs(doc) // every pair, text-major
	stops := 0
	for _, c := range p.GatedScores(doc) {
		want := exact[c.Text*len(doc.TableMentions)+c.Table].Score
		if math.Float64bits(c.Score) == math.Float64bits(want) {
			continue
		}
		x, tm := &doc.TextMentions[c.Text], doc.TableMentions[c.Table]
		minScore, ok := filter.MinScore(p.FilterConfig, x, tm)
		if !ok || !(want < minScore) || !(c.Score < want) {
			t.Fatalf("doc %s pair (%d,%d): gated score %v, exact %v (minimum %v, %v)",
				doc.ID, c.Text, c.Table, c.Score, want, minScore, ok)
		}
		stops++
	}
	return stops
}

// TestGateDecisionIdentity: gate-on (the default align path), gate-off, and
// the full reference path produce byte-identical alignments on every corpus
// document — the gate may only skip work, never change a decision. It runs
// under both the rule-based and the trained tagger, since the tag gate prunes
// on whatever the configured tagger predicts, and requires each shortcut of
// the gated path to fire: unit and tag gating, and forest walks of value-far
// rows that stopped early.
func TestGateDecisionIdentity(t *testing.T) {
	c, trained := eqFixture(t)
	learned, ok := trained.Tagger.(*tagger.Learned)
	if !ok {
		t.Fatalf("trained pipeline tagger is %T, want *tagger.Learned", trained.Tagger)
	}

	for _, tc := range []struct {
		name string
		tag  tagger.Tagger
	}{
		{"rule", tagger.Rule{}},
		{"learned", learned},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := *trained
			p.Tagger = tc.tag
			gateOff := p
			gateOff.NoClassifyGate = true
			ref := referenceCopy(&p)
			ref.NoClassifyGate = true

			unitGated, tagGated, stopped := 0, 0, 0
			for _, doc := range c.Docs {
				gated := p.Align(doc)
				ungated := gateOff.Align(doc)
				reference := ref.Align(doc)

				g, _ := json.Marshal(gated)
				u, _ := json.Marshal(ungated)
				r, _ := json.Marshal(reference)
				if string(g) != string(u) {
					t.Fatalf("doc %s: gate-on alignments differ from gate-off:\n%s\nvs\n%s", doc.ID, g, u)
				}
				if string(g) != string(r) {
					t.Fatalf("doc %s: engine alignments differ from reference:\n%s\nvs\n%s", doc.ID, g, r)
				}
				unit, tag := gateablePairs(doc, tagger.TagAll(tc.tag, doc))
				unitGated += unit
				tagGated += tag
				stopped += earlyStops(t, &p, doc)
			}
			if unitGated == 0 {
				t.Fatal("no corpus pair is unit-incompatible; the unit gate test is vacuous")
			}
			if tagGated == 0 {
				t.Fatal("no corpus pair is tag-pruned; the tag gate test is vacuous")
			}
			if stopped == 0 {
				t.Fatal("no value-far row stopped its forest walk early; the vote-floor test is vacuous")
			}
			t.Logf("gate skips %d unit-incompatible and %d tag-pruned pairs across the corpus; %d value-far walks stopped early",
				unitGated, tagGated, stopped)
		})
	}
}
