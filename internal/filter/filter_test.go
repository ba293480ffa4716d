package filter

import (
	"math"
	"testing"

	"briq/internal/document"
	"briq/internal/quantity"
	"briq/internal/table"
	"briq/internal/tagger"
)

func buildDoc(t *testing.T, text string) *document.Document {
	t.Helper()
	tbl, err := table.New("t0", "drug trial side effects", [][]string{
		{"side effects", "male", "female", "total"},
		{"Rash", "15", "20", "35"},
		{"Depression", "13", "25", "38"},
		{"Hypertension", "19", "15", "34"},
		{"Nausea", "5", "6", "11"},
		{"Eye Disorders", "2", "3", "5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := document.NewSegmenter().Segment("p", []string{text}, []*table.Table{tbl})
	if len(docs) != 1 {
		t.Fatal("segmentation failed")
	}
	return docs[0]
}

// allCandidates builds one candidate per (text, table) pair with the given
// uniform score.
func allCandidates(doc *document.Document, score float64) []Candidate {
	var out []Candidate
	for xi := range doc.TextMentions {
		for ti := range doc.TableMentions {
			out = append(out, Candidate{Text: xi, Table: ti, Score: score})
		}
	}
	return out
}

type fixedTagger map[int]quantity.Agg

func (f fixedTagger) Tag(_ *tagger.Prepared, xi int) quantity.Agg {
	if agg, ok := f[xi]; ok {
		return agg
	}
	return quantity.SingleCell
}

func TestTaggerPruningKeepsMatchingAggregates(t *testing.T) {
	doc := buildDoc(t, "A total of 123 patients reported side effects.")
	cands := allCandidates(doc, 0.9)
	res := Apply(DefaultConfig(), doc, fixedTagger{0: quantity.Sum}, cands)

	keptVirtual := map[quantity.Agg]int{}
	keptSingle := 0
	for _, c := range res.Kept {
		tm := doc.TableMentions[c.Table]
		if tm.IsVirtual() {
			keptVirtual[tm.Agg]++
		} else {
			keptSingle++
		}
	}
	for agg := range keptVirtual {
		if agg != quantity.Sum {
			t.Errorf("virtual pair with agg %v survived a sum tag", agg)
		}
	}
	if res.Tags[0] != quantity.Sum {
		t.Errorf("recorded tag = %v", res.Tags[0])
	}
}

func TestSingleCellPairsNeverTaggerPruned(t *testing.T) {
	// Even with an aggregate tag, single-cell pairs survive step 1 — that is
	// the conservative pruning the paper stresses. The exact-match cell 123
	// does not exist; but 38 does.
	doc := buildDoc(t, "A total of 38 patients had the most common side effect.")
	cands := allCandidates(doc, 0.9)
	res := Apply(DefaultConfig(), doc, fixedTagger{0: quantity.Sum}, cands)
	hasSingle := false
	for _, c := range res.Kept {
		if !doc.TableMentions[c.Table].IsVirtual() {
			hasSingle = true
		}
	}
	if !hasSingle {
		t.Error("all single-cell pairs pruned despite aggregate tag")
	}
}

func TestValueDifferencePruning(t *testing.T) {
	doc := buildDoc(t, "Rash hit 35 patients in the trial.")
	cfg := DefaultConfig()
	// Low-score candidates with huge value difference must be dropped.
	var cands []Candidate
	for ti, tm := range doc.TableMentions {
		score := 0.1 // below MinScoreLooseValue
		_ = tm
		cands = append(cands, Candidate{Text: 0, Table: ti, Score: score})
	}
	res := Apply(cfg, doc, fixedTagger{}, cands)
	for _, c := range res.Kept {
		tm := doc.TableMentions[c.Table]
		rel := quantity.RelativeDifference(35, tm.Value)
		if rel > cfg.ValueDiffMax {
			t.Errorf("far value kept at low score: %v (rel %v)", tm.Value, rel)
		}
	}
	if res.Dropped == 0 {
		t.Error("nothing was dropped")
	}
}

func TestHighScoreSurvivesValuePruning(t *testing.T) {
	doc := buildDoc(t, "Rash hit 35 patients in the trial.")
	cfg := DefaultConfig()
	cfg.KSmall, cfg.KExact = 50, 50 // disable top-k effects
	cfg.EntropyThreshold = 0        // always use the large k
	cfg.KLarge = 50
	var cands []Candidate
	for ti := range doc.TableMentions {
		cands = append(cands, Candidate{Text: 0, Table: ti, Score: 0.95})
	}
	res := Apply(cfg, doc, fixedTagger{}, cands)
	// With scores above p, even far values survive step 2.
	farKept := false
	for _, c := range res.Kept {
		if quantity.RelativeDifference(35, doc.TableMentions[c.Table].Value) > cfg.ValueDiffMax {
			farKept = true
		}
	}
	if !farKept {
		t.Error("confident far-value pair was pruned")
	}
}

// TestMinScore: MinScore reports p exactly for the pairs whose relative
// value difference exceeds v, and a far pair scoring exactly that minimum
// survives step 2 while one scoring just below it does not.
func TestMinScore(t *testing.T) {
	doc := buildDoc(t, "Rash hit 35 patients in the trial.")
	cfg := DefaultConfig()
	cfg.KSmall, cfg.KExact, cfg.KApprox, cfg.KLarge = 1000, 1000, 1000, 1000 // no top-k cut
	x := &doc.TextMentions[0]
	far, other := 0, 0
	for ti, tm := range doc.TableMentions {
		minScore, ok := MinScore(cfg, x, tm)
		rel := quantity.RelativeDifference(x.Value, tm.Value)
		if ok != (rel > cfg.ValueDiffMax) || (ok && minScore != cfg.MinScoreLooseValue) {
			t.Fatalf("table mention %d (rel %v): MinScore = %v, %v", ti, rel, minScore, ok)
		}
		if !ok || UnitPruned(x, tm) || TagPruned(tm, quantity.SingleCell) {
			other++
			continue
		}
		far++
		for _, score := range []float64{minScore, math.Nextafter(minScore, 0)} {
			res := Apply(cfg, doc, fixedTagger{}, []Candidate{{Text: 0, Table: ti, Score: score}})
			if kept := len(res.Kept) == 1; kept != (score >= minScore) {
				t.Fatalf("table mention %d at score %v (minimum %v): kept %v", ti, score, minScore, kept)
			}
		}
	}
	if far == 0 || other == 0 {
		t.Fatalf("%d far and %d other table mentions; want both", far, other)
	}
}

func TestTopKRespectsEntropy(t *testing.T) {
	doc := buildDoc(t, "Depression hit 38 patients in the trial.")
	cfg := DefaultConfig()
	cfg.KSmall = 1

	// Skewed scores: one dominant candidate → only KSmall kept.
	var skewed []Candidate
	for ti := range doc.TableMentions {
		score := 0.01
		if doc.TableMentions[ti].Value == 38 && !doc.TableMentions[ti].IsVirtual() {
			score = 0.99
		}
		skewed = append(skewed, Candidate{Text: 0, Table: ti, Score: score})
	}
	res := Apply(cfg, doc, fixedTagger{}, skewed)
	perMention := map[int]int{}
	for _, c := range res.Kept {
		perMention[c.Text]++
	}
	if perMention[0] > cfg.KExact {
		t.Errorf("kept %d candidates for skewed mention, want ≤ %d", perMention[0], cfg.KExact)
	}
}

func TestTopKUniformKeepsMore(t *testing.T) {
	doc := buildDoc(t, "Depression hit 38 patients in the trial.")
	cfg := DefaultConfig()
	uniform := allCandidates(doc, 0.8) // same score everywhere → max entropy
	res := Apply(cfg, doc, fixedTagger{}, uniform)
	perMention := map[int]int{}
	for _, c := range res.Kept {
		perMention[c.Text]++
	}
	if perMention[0] < cfg.KExact {
		t.Errorf("uniform distribution kept %d, want ≥ %d", perMention[0], cfg.KExact)
	}
	if perMention[0] > cfg.KLarge {
		t.Errorf("kept %d > KLarge %d", perMention[0], cfg.KLarge)
	}
}

func TestMentionTypeFromContext(t *testing.T) {
	doc := buildDoc(t, "About 35 patients reported a rash during the trial.")
	res := Apply(DefaultConfig(), doc, fixedTagger{}, allCandidates(doc, 0.9))
	if res.Types[0] != Approximate {
		t.Errorf("mention type = %v, want approximate (cue 'About')", res.Types[0])
	}
}

func TestMentionTypeBySurfaceVote(t *testing.T) {
	doc := buildDoc(t, "Depression was reported by 38 patients.")
	// Realistic classifier scores: the exact-match cell dominates.
	var cands []Candidate
	for ti, tm := range doc.TableMentions {
		score := 0.55
		if !tm.IsVirtual() && tm.Value == 38 {
			score = 0.95
		}
		cands = append(cands, Candidate{Text: 0, Table: ti, Score: score})
	}
	res := Apply(DefaultConfig(), doc, fixedTagger{}, cands)
	if res.Types[0] != Exact {
		t.Errorf("mention type = %v, want exact", res.Types[0])
	}
}

func TestUnitMismatchPruned(t *testing.T) {
	tbl, err := table.New("t0", "prices in euro", [][]string{
		{"item", "price"},
		{"alpha", "€35"},
		{"beta", "€70"},
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := document.NewSegmenter().Segment("p",
		[]string{"The item sold for $35 in the US."}, []*table.Table{tbl})
	if len(docs) != 1 {
		t.Fatal("no doc")
	}
	doc := docs[0]
	res := Apply(DefaultConfig(), doc, fixedTagger{}, allCandidates(doc, 0.9))
	for _, c := range res.Kept {
		tm := doc.TableMentions[c.Table]
		if tm.Unit == "EUR" {
			t.Errorf("USD mention paired with EUR cell survived: %v", tm.Key())
		}
	}
}

func TestDeterministicOutput(t *testing.T) {
	doc := buildDoc(t, "A total of 123 patients and 69 female patients were counted.")
	cands := allCandidates(doc, 0.7)
	r1 := Apply(DefaultConfig(), doc, fixedTagger{}, cands)
	r2 := Apply(DefaultConfig(), doc, fixedTagger{}, cands)
	if len(r1.Kept) != len(r2.Kept) {
		t.Fatal("nondeterministic kept count")
	}
	for i := range r1.Kept {
		if r1.Kept[i] != r2.Kept[i] {
			t.Fatalf("nondeterministic order at %d", i)
		}
	}
}

func TestSelectivity(t *testing.T) {
	if Selectivity(5, 100) != 0.05 {
		t.Error("selectivity wrong")
	}
	if Selectivity(0, 0) != 0 {
		t.Error("empty selectivity should be 0")
	}
}

func TestDigits(t *testing.T) {
	if digits("$3,263.5 million") != "32635" {
		t.Errorf("digits = %q", digits("$3,263.5 million"))
	}
	if digits("no numbers") != "" {
		t.Error("digits should be empty")
	}
}

func TestMentionTypeString(t *testing.T) {
	if Exact.String() != "exact" || Approximate.String() != "approximate" || Truncated.String() != "truncated" {
		t.Error("unexpected names")
	}
}
