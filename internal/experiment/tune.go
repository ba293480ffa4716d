package experiment

import (
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/mlmetrics"
)

// Tuning reproduces §VII-C: "for tuning hyper-parameters, we use the
// withheld validation set... We use grid search to choose the best values."
// The grids below are deliberately coarse — the paper reports grid search as
// the dominant cost of its 10-hour training, and the harness keeps the same
// structure at laptop scale.

// TuneResult records the chosen hyper-parameters and the validation F1 they
// achieved.
type TuneResult struct {
	Params mlmetrics.Params
	F1     float64
}

// TuneGraph grid-searches the global-resolution parameters (α/β mix, ε, and
// the restart probability) on the validation split.
func TuneGraph(c *corpus.Corpus, tr *Trained, val []*document.Document) TuneResult {
	grid := mlmetrics.Grid{
		"alpha":   {0.4, 0.6, 0.8},
		"epsilon": {0.15, 0.2, 0.3},
		"restart": {0.1, 0.15, 0.25},
	}
	best, f1 := mlmetrics.GridSearch(grid, func(p mlmetrics.Params) float64 {
		briq := NewBriQ(tr)
		g := &briq.P.GraphConfig
		g.Alpha = p["alpha"]
		g.Beta = 1 - p["alpha"]
		g.Epsilon = p["epsilon"]
		g.Restart = p["restart"]
		return Evaluate(briq, c, val).Overall.F1
	})
	return TuneResult{Params: best, F1: f1}
}

// TuneFilter grid-searches the adaptive-filtering thresholds (v, p and the
// entropy threshold) on the validation split (§V-B).
func TuneFilter(c *corpus.Corpus, tr *Trained, val []*document.Document) TuneResult {
	grid := mlmetrics.Grid{
		"value_diff": {0.25, 0.35, 0.5},
		"min_score":  {0.4, 0.55, 0.7},
		"entropy":    {0.4, 0.55, 0.7},
	}
	best, f1 := mlmetrics.GridSearch(grid, func(p mlmetrics.Params) float64 {
		briq := NewBriQ(tr)
		f := &briq.P.FilterConfig
		f.ValueDiffMax = p["value_diff"]
		f.MinScoreLooseValue = p["min_score"]
		f.EntropyThreshold = p["entropy"]
		return Evaluate(briq, c, val).Overall.F1
	})
	return TuneResult{Params: best, F1: f1}
}
