package experiment

import "testing"

func TestTuneGraphAndFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("grid search is slow")
	}
	c, split, tr := fixture(t)
	val := split.Val
	if len(val) > 25 {
		val = val[:25] // a validation subsample keeps the grid affordable in tests
	}

	graphTune := TuneGraph(c, tr, val)
	if graphTune.F1 <= 0 {
		t.Errorf("graph tuning found no working configuration: %+v", graphTune)
	}
	for _, key := range []string{"alpha", "epsilon", "restart"} {
		if _, ok := graphTune.Params[key]; !ok {
			t.Errorf("graph tuning missing %s", key)
		}
	}

	filterTune := TuneFilter(c, tr, val)
	if filterTune.F1 <= 0 {
		t.Errorf("filter tuning found no working configuration: %+v", filterTune)
	}

	// Both grids contain the default point (α 0.6, ε 0.2, restart 0.15; v
	// 0.35, p 0.55, entropy 0.55), so each best F1 is at least the default
	// pipeline's on the same validation slice.
	defaultF1 := Evaluate(NewBriQ(tr), c, val).Overall.F1
	for name, tuned := range map[string]TuneResult{"graph": graphTune, "filter": filterTune} {
		if tuned.F1 < defaultF1 {
			t.Errorf("%s tuning F1 %.3f below default %.3f on validation", name, tuned.F1, defaultF1)
		}
	}
}
