package mlmetrics

import (
	"math"
	"testing"
)

func TestNewPRF(t *testing.T) {
	prf := NewPRF(8, 2, 4)
	if math.Abs(prf.Precision-0.8) > 1e-9 {
		t.Errorf("precision = %v, want 0.8", prf.Precision)
	}
	if math.Abs(prf.Recall-8.0/12.0) > 1e-9 {
		t.Errorf("recall = %v", prf.Recall)
	}
	wantF1 := 2 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0/12.0)
	if math.Abs(prf.F1-wantF1) > 1e-9 {
		t.Errorf("F1 = %v, want %v", prf.F1, wantF1)
	}
}

func TestNewPRFZeroDenominators(t *testing.T) {
	prf := NewPRF(0, 0, 0)
	if prf.Precision != 0 || prf.Recall != 0 || prf.F1 != 0 {
		t.Errorf("all-zero PRF = %+v, want zeros", prf)
	}
}

func TestCounts(t *testing.T) {
	var c Counts
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, true)  // FN
	c.Add(false, false) // TN
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Errorf("counts = %+v", c)
	}
	prf := c.PRF()
	if prf.Precision != 0.5 || prf.Recall != 0.5 {
		t.Errorf("PRF = %+v", prf)
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]float64{1, 1}); math.Abs(h-math.Log(2)) > 1e-12 {
		t.Errorf("uniform-2 entropy = %v, want ln 2", h)
	}
	if h := Entropy([]float64{1, 0, 0}); h != 0 {
		t.Errorf("point-mass entropy = %v, want 0", h)
	}
	if h := Entropy(nil); h != 0 {
		t.Errorf("empty entropy = %v, want 0", h)
	}
	// Unnormalized input gives the same result.
	if math.Abs(Entropy([]float64{2, 2})-Entropy([]float64{0.5, 0.5})) > 1e-12 {
		t.Error("entropy should be scale invariant")
	}
	// Negative weights are ignored.
	if h := Entropy([]float64{-1, 1}); h != 0 {
		t.Errorf("negative-weight entropy = %v, want 0", h)
	}
}

func TestNormalizedEntropy(t *testing.T) {
	if h := NormalizedEntropy([]float64{1, 1, 1, 1}); math.Abs(h-1) > 1e-12 {
		t.Errorf("uniform normalized entropy = %v, want 1", h)
	}
	if h := NormalizedEntropy([]float64{5}); h != 0 {
		t.Errorf("singleton normalized entropy = %v, want 0", h)
	}
	if h := NormalizedEntropy([]float64{0.9, 0.1}); h <= 0 || h >= 1 {
		t.Errorf("skewed normalized entropy = %v, want in (0,1)", h)
	}
}

func TestNormalize(t *testing.T) {
	w := Normalize([]float64{2, 6})
	if w[0] != 0.25 || w[1] != 0.75 {
		t.Errorf("Normalize = %v", w)
	}
	u := Normalize([]float64{0, 0})
	if u[0] != 0.5 || u[1] != 0.5 {
		t.Errorf("zero-total Normalize = %v, want uniform", u)
	}
	if out := Normalize(nil); out != nil {
		t.Errorf("nil Normalize = %v", out)
	}
}

func TestFleissKappaPerfectAgreement(t *testing.T) {
	// 3 annotators all agree on every item.
	ratings := [][]int{
		{3, 0},
		{0, 3},
		{3, 0},
	}
	if k := FleissKappa(ratings); math.Abs(k-1) > 1e-9 {
		t.Errorf("perfect agreement kappa = %v, want 1", k)
	}
}

func TestFleissKappaWikipediaExample(t *testing.T) {
	// The canonical worked example from Fleiss (1971): 10 items, 14 raters,
	// 5 categories; κ ≈ 0.210.
	ratings := [][]int{
		{0, 0, 0, 0, 14},
		{0, 2, 6, 4, 2},
		{0, 0, 3, 5, 6},
		{0, 3, 9, 2, 0},
		{2, 2, 8, 1, 1},
		{7, 7, 0, 0, 0},
		{3, 2, 6, 3, 0},
		{2, 5, 3, 2, 2},
		{6, 5, 2, 1, 0},
		{0, 2, 2, 3, 7},
	}
	if k := FleissKappa(ratings); math.Abs(k-0.210) > 0.001 {
		t.Errorf("kappa = %v, want ≈0.210", k)
	}
}

func TestFleissKappaDegenerate(t *testing.T) {
	if k := FleissKappa(nil); k != 0 {
		t.Errorf("empty kappa = %v", k)
	}
	if k := FleissKappa([][]int{{1, 0}}); k != 0 {
		t.Errorf("single-rater kappa = %v", k)
	}
}

func TestGridCombinations(t *testing.T) {
	g := Grid{"a": {1, 2}, "b": {10, 20, 30}}
	combos := g.Combinations()
	if len(combos) != 6 {
		t.Fatalf("want 6 combos, got %d", len(combos))
	}
	seen := map[string]bool{}
	for _, p := range combos {
		seen[p.String()] = true
	}
	if len(seen) != 6 {
		t.Errorf("duplicate combos: %v", seen)
	}
}

func TestGridSearch(t *testing.T) {
	g := Grid{"x": {0, 1, 2, 3}, "y": {0, 1, 2}}
	best, score := GridSearch(g, func(p Params) float64 {
		return -math.Pow(p["x"]-2, 2) - math.Pow(p["y"]-1, 2)
	})
	if best["x"] != 2 || best["y"] != 1 {
		t.Errorf("best = %v", best)
	}
	if score != 0 {
		t.Errorf("best score = %v, want 0", score)
	}
}

func TestGridSearchDeterministicTies(t *testing.T) {
	g := Grid{"x": {1, 2, 3}}
	best1, _ := GridSearch(g, func(Params) float64 { return 1 })
	best2, _ := GridSearch(g, func(Params) float64 { return 1 })
	if best1["x"] != best2["x"] {
		t.Error("tie-breaking not deterministic")
	}
	if best1["x"] != 1 {
		t.Errorf("tie should keep first combination, got %v", best1["x"])
	}
}

func TestParamsString(t *testing.T) {
	p := Params{"beta": 2, "alpha": 1}
	if got := p.String(); got != "{alpha=1 beta=2}" {
		t.Errorf("String = %q", got)
	}
}
