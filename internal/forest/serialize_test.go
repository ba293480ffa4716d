package forest

import (
	"bytes"
	"strings"
	"testing"

	"briq/internal/jsonread"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	f, err := Train(xorSamples(400, 3), 2, Config{Trees: 25, MaxDepth: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, ok := Parse(jsonread.New(buf.Bytes())); !ok {
		t.Error("Parse declined what Save wrote")
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Classes() != f.Classes() || loaded.NumFeatures() != f.NumFeatures() {
		t.Errorf("metadata mismatch: %d/%d vs %d/%d",
			loaded.Classes(), loaded.NumFeatures(), f.Classes(), f.NumFeatures())
	}
	for _, s := range xorSamples(100, 4) {
		p1 := f.PredictProba(s.Features)
		p2 := loaded.PredictProba(s.Features)
		for c := range p1 {
			if p1[c] != p2[c] {
				t.Fatalf("prediction mismatch for %v: %v vs %v", s.Features, p1, p2)
			}
		}
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"garbage", "not json"},
		{"wrong version", `{"version":99,"classes":2,"n_features":1,"trees":[[{"f":-1,"c":0}]]}`},
		{"no trees", `{"version":1,"classes":2,"n_features":1,"trees":[]}`},
		{"one class", `{"version":1,"classes":1,"n_features":1,"trees":[[{"f":-1,"c":0}]]}`},
		{"empty tree", `{"version":1,"classes":2,"n_features":1,"trees":[[]]}`},
		{"bad feature", `{"version":1,"classes":2,"n_features":1,"trees":[[{"f":5,"t":0.5,"l":1,"r":2,"c":0},{"f":-1,"c":0},{"f":-1,"c":1}]]}`},
		{"bad class", `{"version":1,"classes":2,"n_features":1,"trees":[[{"f":-1,"c":7}]]}`},
		{"bad child", `{"version":1,"classes":2,"n_features":1,"trees":[[{"f":0,"t":0.5,"l":9,"r":9,"c":0}]]}`},
	}
	for _, tc := range cases {
		if _, err := Load(strings.NewReader(tc.json)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestLoadedForestRejectsNothingValid(t *testing.T) {
	// A valid minimal model loads and predicts.
	src := `{"version":1,"classes":2,"n_features":2,
		"trees":[[{"f":0,"t":0.5,"l":1,"r":2,"c":0},{"f":-1,"c":0},{"f":-1,"c":1}]]}`
	f, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{0.2, 0}); got != 0 {
		t.Errorf("Predict(low) = %d, want 0", got)
	}
	if got := f.Predict([]float64{0.8, 0}); got != 1 {
		t.Errorf("Predict(high) = %d, want 1", got)
	}
}
