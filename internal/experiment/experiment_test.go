package experiment

import (
	"strings"
	"sync"
	"testing"

	"briq/internal/corpus"
	"briq/internal/quantity"
)

// The fixture corpus and models are expensive; share them across tests.
var (
	fixtureOnce sync.Once
	fixCorpus   *corpus.Corpus
	fixSplit    Split
	fixTrained  *Trained
	fixErr      error
)

func fixture(t testing.TB) (*corpus.Corpus, Split, *Trained) {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := corpus.TableSConfig(17)
		cfg.Pages = 120
		fixCorpus = corpus.Generate(cfg)
		fixSplit = SplitCorpus(fixCorpus, 7)
		fixTrained, fixErr = Train(fixCorpus, fixSplit.Train, DefaultTrainOptions(3))
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixCorpus, fixSplit, fixTrained
}

func TestSplitCorpus(t *testing.T) {
	c, split, _ := fixture(t)
	total := len(split.Train) + len(split.Val) + len(split.Test)
	if total != len(c.Docs) {
		t.Errorf("split covers %d of %d docs", total, len(c.Docs))
	}
	if len(split.Train) < len(c.Docs)*7/10 {
		t.Errorf("train split too small: %d of %d", len(split.Train), len(c.Docs))
	}
	seen := map[string]bool{}
	for _, part := range [][]int{} {
		_ = part
	}
	for _, d := range split.Train {
		seen[d.ID] = true
	}
	for _, d := range split.Test {
		if seen[d.ID] {
			t.Fatalf("doc %s in both train and test", d.ID)
		}
	}
}

func TestTrainingDataShape(t *testing.T) {
	_, _, tr := fixture(t)
	data := tr.Data
	if len(data.Samples) == 0 {
		t.Fatal("no samples")
	}
	pos, neg := 0, 0
	for _, s := range data.Samples {
		if s.Label == 1 {
			pos++
		} else {
			neg++
		}
	}
	if neg < pos*3 || neg > pos*NegativesPerPositive {
		t.Errorf("pos=%d neg=%d, want ≈1:%d", pos, neg, NegativesPerPositive)
	}
	// Table I shape: single-cell dominates positives; aggregate negatives
	// outnumber aggregate positives heavily.
	if data.ByType[quantity.SingleCell].Pos < pos/2 {
		t.Errorf("single-cell positives = %d of %d", data.ByType[quantity.SingleCell].Pos, pos)
	}
	sumCounts := data.ByType[quantity.Sum]
	if sumCounts.Pos > 0 && sumCounts.Neg <= sumCounts.Pos {
		t.Errorf("sum negatives (%d) should exceed positives (%d) — hardest negatives include many virtual cells",
			sumCounts.Neg, sumCounts.Pos)
	}
}

func TestRunTableI(t *testing.T) {
	_, _, tr := fixture(t)
	rep := RunTableI(tr.Data)
	out := rep.String()
	for _, want := range []string{"single-cell", "sum", "percent", "diff", "ratio", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing row %q:\n%s", want, out)
		}
	}
}

func TestBriQBeatsBaselines(t *testing.T) {
	c, split, tr := fixture(t)
	briq := Evaluate(NewBriQ(tr), c, split.Test)
	rf := Evaluate(NewRFOnly(tr), c, split.Test)
	rwr := Evaluate(NewRWROnly(tr.Opts.FeatureConfig, tr.Opts.Mask), c, split.Test)

	t.Logf("BriQ F1=%.3f (P=%.3f R=%.3f)", briq.Overall.F1, briq.Overall.Precision, briq.Overall.Recall)
	t.Logf("RF   F1=%.3f (P=%.3f R=%.3f)", rf.Overall.F1, rf.Overall.Precision, rf.Overall.Recall)
	t.Logf("RWR  F1=%.3f (P=%.3f R=%.3f)", rwr.Overall.F1, rwr.Overall.Precision, rwr.Overall.Recall)

	if briq.Overall.F1 <= rf.Overall.F1 {
		t.Errorf("BriQ F1 %.3f should beat RF %.3f", briq.Overall.F1, rf.Overall.F1)
	}
	if briq.Overall.F1 <= rwr.Overall.F1 {
		t.Errorf("BriQ F1 %.3f should beat RWR %.3f", briq.Overall.F1, rwr.Overall.F1)
	}
	if briq.Overall.F1 < 0.5 {
		t.Errorf("BriQ F1 %.3f is too low for the synthetic corpus (paper: 0.73 on web data)", briq.Overall.F1)
	}
}

func TestTableIIQualityOrdering(t *testing.T) {
	c, split, tr := fixture(t)
	systems := []System{NewBriQ(tr)}
	_, evals := RunTableII(c, systems, split.Test)
	briq := evals["BriQ"]
	orig := briq[corpus.Original].Overall.F1
	trunc := briq[corpus.Truncated].Overall.F1
	round := briq[corpus.Rounded].Overall.F1
	t.Logf("BriQ F1 original=%.3f truncated=%.3f rounded=%.3f", orig, trunc, round)
	// Expected shape: original ≥ truncated and original ≥ rounded — the
	// perturbations only remove information.
	if trunc > orig+0.02 || round > orig+0.02 {
		t.Errorf("perturbed F1 exceeds original: orig=%.3f trunc=%.3f round=%.3f", orig, trunc, round)
	}
	if trunc < 0.2 {
		t.Errorf("truncated F1 collapsed: %.3f", trunc)
	}
}

func TestByTypeReports(t *testing.T) {
	c, split, tr := fixture(t)
	rep, eval := RunByType("Table V", NewBriQ(tr), c, split.Test)
	if !strings.Contains(rep.String(), "single-cell") {
		t.Error("report missing single-cell column")
	}
	single := eval.ByType[quantity.SingleCell]
	if single.F1 == 0 {
		t.Error("single-cell F1 is zero")
	}
	// Single-cell should be among the best-performing types (paper: 0.79).
	if sum := eval.ByType[quantity.Sum]; sum.F1 > 0 && single.F1 < sum.F1/2 {
		t.Errorf("single-cell F1 %.3f unexpectedly below half of sum %.3f", single.F1, sum.F1)
	}
}

func TestTableVIFiltering(t *testing.T) {
	c, split, tr := fixture(t)
	rep, stats := RunTableVI(c, tr, split.Test)
	overall := stats[quantity.Agg(-1)]
	t.Logf("filtering: selectivity=%.4f recall=%.3f\n%s", overall.Selectivity, overall.Recall, rep)
	// The paper reports ≈1% selectivity at ≈0.91 recall; the shape to
	// reproduce is strong pruning with little recall loss.
	if overall.Selectivity > 0.25 {
		t.Errorf("selectivity %.3f too weak (paper ≈0.01)", overall.Selectivity)
	}
	if overall.Recall < 0.6 {
		t.Errorf("post-filter recall %.3f too low (paper ≈0.91)", overall.Recall)
	}
}

func TestEvaluateCountsConsistent(t *testing.T) {
	c, split, tr := fixture(t)
	eval := Evaluate(NewBriQ(tr), c, split.Test)
	goldTotal := 0
	for _, doc := range split.Test {
		goldTotal += len(c.GoldFor(doc.ID))
	}
	if eval.Counts.TP+eval.Counts.FN != goldTotal {
		t.Errorf("TP+FN = %d, want gold total %d", eval.Counts.TP+eval.Counts.FN, goldTotal)
	}
}
