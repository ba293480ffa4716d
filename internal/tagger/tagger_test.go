package tagger

import (
	"math/rand"
	"testing"

	"briq/internal/document"
	"briq/internal/forest"
	"briq/internal/quantity"
	"briq/internal/table"
)

func docWith(t *testing.T, text string) *document.Document {
	t.Helper()
	tbl, err := table.New("t0", "drug trial side effects counts", [][]string{
		{"side effects", "male", "female", "total"},
		{"Rash", "15", "20", "35"},
		{"Depression", "13", "25", "38"},
		{"Nausea", "5", "6", "11"},
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := document.NewSegmenter().Segment("p", []string{text}, []*table.Table{tbl})
	if len(docs) != 1 {
		t.Fatalf("want 1 doc for %q", text)
	}
	return docs[0]
}

func TestFeaturesShape(t *testing.T) {
	doc := docWith(t, "A total of 84 patients reported side effects.")
	vec := Prepare(doc).Features(0)
	if len(vec) != NumTagFeatures {
		t.Fatalf("feature length = %d, want %d", len(vec), NumTagFeatures)
	}
}

func TestFeaturesCueCounts(t *testing.T) {
	doc := docWith(t, "A total of 84 patients reported side effects.")
	vec := Prepare(doc).Features(0)
	// "total" is a sum cue in the immediate scope (index 0 of sum).
	if vec[fCueBase] == 0 {
		t.Error("sum immediate cue count should be > 0")
	}
	// No ratio cues anywhere.
	for scope := 0; scope < 3; scope++ {
		if vec[fCueBase+3*3+scope] != 0 {
			t.Errorf("ratio cue count scope %d = %v, want 0", scope, vec[fCueBase+3*3+scope])
		}
	}
}

func TestFeaturesExactMatch(t *testing.T) {
	doc := docWith(t, "Depression affected 38 of the patients.")
	vec := Prepare(doc).Features(0)
	if vec[fExactMatches] < 1 {
		t.Errorf("exact match count = %v, want ≥ 1 (cell '38')", vec[fExactMatches])
	}
}

func TestRuleTagger(t *testing.T) {
	tests := []struct {
		text string
		want quantity.Agg
	}{
		{"A total of 84 patients reported side effects together.", quantity.Sum},
		{"Counts increased by 12% over the change rate of last year.", quantity.Ratio},
		{"Depression affected 38 patients.", quantity.SingleCell},
		{"The gap was 23 fewer cases, a difference versus last year.", quantity.Diff},
	}
	for _, tc := range tests {
		doc := docWith(t, tc.text)
		if len(doc.TextMentions) == 0 {
			t.Fatalf("no mentions in %q", tc.text)
		}
		got := Rule{}.Tag(Prepare(doc), 0)
		if got != tc.want {
			t.Errorf("Rule.Tag(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestRuleTaggerExactMatchGuard(t *testing.T) {
	// "38" exactly matches a cell; a single weak sum cue in another clause
	// must not flip the tag to an aggregate.
	doc := docWith(t, "In total the study had issues; Depression was reported by 38 patients.")
	if got := (Rule{}).Tag(Prepare(doc), 0); got != quantity.SingleCell {
		t.Errorf("Tag = %v, want single-cell (exact-match guard)", got)
	}
}

// synthesizeExamples builds a separable training set from cue-count
// patterns, mimicking the small labeled dataset of §V-A.
func synthesizeExamples(n int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	var out []Example
	for i := 0; i < n; i++ {
		label := Labels[rng.Intn(len(Labels))]
		vec := make([]float64, NumTagFeatures)
		vec[fScale] = float64(rng.Intn(6))
		vec[fPrecision] = float64(rng.Intn(3))
		vec[fUnit] = float64(rng.Intn(5))
		if label == quantity.SingleCell {
			vec[fExactMatches] = float64(1 + rng.Intn(3))
		} else {
			idx := -1
			for j, agg := range taggedAggs {
				if agg == label {
					idx = j
				}
			}
			vec[fCueBase+idx*3] = float64(1 + rng.Intn(3))
			vec[fCueBase+idx*3+1] = float64(rng.Intn(3))
			vec[fCueBase+idx*3+2] = float64(rng.Intn(4))
			if rng.Float64() < 0.3 {
				vec[fExactMatches] = 1 // noise: aggregates can collide with cells
			}
		}
		out = append(out, Example{Features: vec, Label: label})
	}
	return out
}

func TestLearnedTagger(t *testing.T) {
	train := synthesizeExamples(800, 1)
	lt, err := Train(train, forest.Config{Trees: 40, MaxDepth: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	test := synthesizeExamples(300, 2)
	correct := 0
	for _, ex := range test {
		if quantity.Agg(ltForest(lt).Predict(ex.Features)) == ex.Label {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.9 {
		t.Errorf("learned tagger accuracy = %.3f, want ≥ 0.9", acc)
	}
}

// ltForest exposes the inner forest for direct feature-space testing.
func ltForest(l *Learned) *forest.Forest { return l.forest }

func TestLearnedTaggerOnDocument(t *testing.T) {
	lt, err := Train(synthesizeExamples(800, 1), forest.Config{Trees: 40, MaxDepth: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	doc := docWith(t, "A total of 84 patients reported side effects together overall.")
	got := lt.Tag(Prepare(doc), 0)
	if got != quantity.Sum {
		t.Errorf("learned Tag = %v, want sum", got)
	}
	proba := lt.TagProba(Prepare(doc), 0)
	if len(proba) != NumClasses {
		t.Errorf("proba length = %d", len(proba))
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, forest.Config{}); err == nil {
		t.Error("want error for empty examples")
	}
	bad := []Example{{Features: make([]float64, NumTagFeatures), Label: quantity.Max}}
	if _, err := Train(bad, forest.Config{}); err == nil {
		t.Error("want error for out-of-tagset label")
	}
}
