package experiment

import (
	"fmt"

	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/feature"
	"briq/internal/filter"
	"briq/internal/mlmetrics"
	"briq/internal/quantity"
)

// typeOrder is the row/column order the paper uses for per-type results.
var typeOrder = []quantity.Agg{
	quantity.Sum, quantity.Diff, quantity.Percent, quantity.Ratio, quantity.SingleCell,
}

// RunTableI reports the classifier training data breakdown by mention type
// (Table I).
func RunTableI(data TrainingData) *Report {
	r := &Report{
		Title:  "Table I: classifier training data",
		Header: []string{"type", "#pos", "#neg"},
	}
	totalPos, totalNeg := 0, 0
	for _, agg := range []quantity.Agg{quantity.SingleCell, quantity.Sum, quantity.Percent, quantity.Diff, quantity.Ratio} {
		tc := data.ByType[agg]
		r.AddRow(agg.String(), fmt.Sprint(tc.Pos), fmt.Sprint(tc.Neg))
		totalPos += tc.Pos
		totalNeg += tc.Neg
	}
	// Aggregations outside the tagged set (avg/min/max when enabled).
	for agg, tc := range data.ByType {
		switch agg {
		case quantity.SingleCell, quantity.Sum, quantity.Percent, quantity.Diff, quantity.Ratio:
			continue
		}
		r.AddRow(agg.String(), fmt.Sprint(tc.Pos), fmt.Sprint(tc.Neg))
		totalPos += tc.Pos
		totalNeg += tc.Neg
	}
	r.AddRow("total", fmt.Sprint(totalPos), fmt.Sprint(totalNeg))
	return r
}

// PerturbationEvals holds Table II results: system → perturbation → Eval.
type PerturbationEvals map[string]map[corpus.Perturbation]Eval

// RunTableII evaluates the three systems on original, truncated and rounded
// test mentions (Table II).
func RunTableII(c *corpus.Corpus, systems []System, test []*document.Document) (*Report, PerturbationEvals) {
	perturbations := []corpus.Perturbation{corpus.Original, corpus.Truncated, corpus.Rounded}
	evals := make(PerturbationEvals)
	for _, sys := range systems {
		evals[sys.Name()] = make(map[corpus.Perturbation]Eval)
		for _, p := range perturbations {
			docs := corpus.PerturbDocs(test, p)
			evals[sys.Name()][p] = Evaluate(sys, c, docs)
		}
	}

	r := &Report{Title: "Table II: results for original, truncated and rounded text mentions"}
	r.Header = []string{"metric"}
	for _, p := range perturbations {
		for _, sys := range systems {
			r.Header = append(r.Header, fmt.Sprintf("%s/%s", p, sys.Name()))
		}
	}
	metric := func(name string, pick func(mlmetrics.PRF) float64) {
		row := []string{name}
		for _, p := range perturbations {
			for _, sys := range systems {
				row = append(row, f2(pick(evals[sys.Name()][p].Overall)))
			}
		}
		r.AddRow(row...)
	}
	metric("recall", func(m mlmetrics.PRF) float64 { return m.Recall })
	metric("prec.", func(m mlmetrics.PRF) float64 { return m.Precision })
	metric("F1", func(m mlmetrics.PRF) float64 { return m.F1 })
	return r, evals
}

// RunByType reports one system's per-type results on original mentions
// (Tables III, IV and V for RF, RWR and BriQ respectively).
func RunByType(tableName string, sys System, c *corpus.Corpus, test []*document.Document) (*Report, Eval) {
	eval := Evaluate(sys, c, test)
	r := &Report{
		Title:  fmt.Sprintf("%s: results by mention type for original mentions, using %s", tableName, sys.Name()),
		Header: []string{"metric", "sum", "diff", "percent", "ratio", "single-cell"},
	}
	row := func(name string, pick func(mlmetrics.PRF) float64) {
		cells := []string{name}
		for _, agg := range typeOrder {
			cells = append(cells, f2(pick(eval.ByType[agg])))
		}
		r.AddRow(cells...)
	}
	row("recall", func(m mlmetrics.PRF) float64 { return m.Recall })
	row("prec.", func(m mlmetrics.PRF) float64 { return m.Precision })
	row("F1", func(m mlmetrics.PRF) float64 { return m.F1 })
	return r, eval
}

// FilterStats is one row of Table VI.
type FilterStats struct {
	Selectivity float64
	Recall      float64
}

// RunTableVI measures the adaptive filter's selectivity (kept pairs / all
// pairs) and post-filter recall of gold pairs, by mention type (Table VI).
func RunTableVI(c *corpus.Corpus, tr *Trained, test []*document.Document) (*Report, map[quantity.Agg]FilterStats) {
	briq := NewBriQ(tr)
	kept := make(map[quantity.Agg]int)  // gold pairs surviving the filter
	total := make(map[quantity.Agg]int) // gold pairs overall
	keptAll, totalAll := 0, 0           // all pairs, for selectivity
	keptByType := make(map[quantity.Agg]int)
	pairsByType := make(map[quantity.Agg]int)

	for _, doc := range test {
		cands := briq.P.ScorePairs(doc)
		res := filter.Apply(briq.P.FilterConfig, doc, briq.P.Tagger, cands)

		totalAll += len(cands)
		keptAll += len(res.Kept)
		for _, cand := range cands {
			pairsByType[doc.TableMentions[cand.Table].Agg]++
		}
		for _, cand := range res.Kept {
			keptByType[doc.TableMentions[cand.Table].Agg]++
		}

		keptSet := make(map[[2]int]bool, len(res.Kept))
		for _, cand := range res.Kept {
			keptSet[[2]int{cand.Text, cand.Table}] = true
		}
		keyToIdx := make(map[string]int, len(doc.TableMentions))
		for ti, tm := range doc.TableMentions {
			keyToIdx[tm.Key()] = ti
		}
		for _, g := range c.GoldFor(doc.ID) {
			ti, ok := keyToIdx[g.TableKey]
			if !ok {
				continue
			}
			total[g.Agg]++
			if keptSet[[2]int{g.TextIndex, ti}] {
				kept[g.Agg]++
			}
		}
	}

	stats := make(map[quantity.Agg]FilterStats)
	r := &Report{
		Title:  "Table VI: selectivity and recall after filtering",
		Header: []string{"type", "selectivity", "recall"},
	}
	var goldKept, goldTotal int
	for _, agg := range typeOrder {
		sel := filter.Selectivity(keptByType[agg], pairsByType[agg])
		rec := 0.0
		if total[agg] > 0 {
			rec = float64(kept[agg]) / float64(total[agg])
		}
		stats[agg] = FilterStats{Selectivity: sel, Recall: rec}
		r.AddRow(agg.String(), f2(sel), f2(rec))
		goldKept += kept[agg]
		goldTotal += total[agg]
	}
	overallSel := filter.Selectivity(keptAll, totalAll)
	overallRec := 0.0
	if goldTotal > 0 {
		overallRec = float64(goldKept) / float64(goldTotal)
	}
	stats[quantity.Agg(-1)] = FilterStats{Selectivity: overallSel, Recall: overallRec}
	r.AddRow("overall", f2(overallSel), f2(overallRec))
	return r, stats
}

// AblationResult holds Table VII: mask name → system name → Eval.
type AblationResult map[string]map[string]Eval

// AblationMasks are the four feature configurations of Table VII.
func AblationMasks() []struct {
	Name string
	Mask feature.Mask
} {
	return []struct {
		Name string
		Mask feature.Mask
	}{
		{"all features", feature.FullMask()},
		{"w/o surf. sim.", feature.WithoutGroup(feature.GroupSurface)},
		{"w/o context", feature.WithoutGroup(feature.GroupContext)},
		{"w/o quantity", feature.WithoutGroup(feature.GroupQuantity)},
	}
}

// RunTableVII retrains and re-evaluates every system with each feature group
// left out (Table VII). Each ablation trains end-to-end on the training
// split with the reduced feature set.
func RunTableVII(c *corpus.Corpus, split Split, opts TrainOptions) (*Report, AblationResult, error) {
	results := make(AblationResult)
	for _, abl := range AblationMasks() {
		o := opts
		o.Mask = abl.Mask
		tr, err := Train(c, split.Train, o)
		if err != nil {
			return nil, nil, fmt.Errorf("ablation %q: %w", abl.Name, err)
		}
		systems := []System{
			NewRFOnly(tr),
			NewRWROnly(o.FeatureConfig, o.Mask),
			NewBriQ(tr),
		}
		results[abl.Name] = make(map[string]Eval)
		for _, sys := range systems {
			results[abl.Name][sys.Name()] = Evaluate(sys, c, split.Test)
		}
	}

	r := &Report{
		Title:  "Table VII: ablation study (recall, precision, F1)",
		Header: []string{"features", "RF R/P/F1", "RWR R/P/F1", "BriQ R/P/F1"},
	}
	for _, abl := range AblationMasks() {
		row := []string{abl.Name}
		for _, sys := range []string{"RF", "RWR", "BriQ"} {
			e := results[abl.Name][sys]
			row = append(row, fmt.Sprintf("%.2f/%.2f/%.2f", e.Overall.Recall, e.Overall.Precision, e.Overall.F1))
		}
		r.AddRow(row...)
	}
	return r, results, nil
}
