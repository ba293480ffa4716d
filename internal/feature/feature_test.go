package feature

import (
	"testing"

	"briq/internal/document"
	"briq/internal/quantity"
	"briq/internal/table"
)

// healthDoc builds the Fig. 1a document: the health paragraph plus its
// side-effects table.
func healthDoc(t *testing.T) *document.Document {
	t.Helper()
	tbl, err := table.New("t0", "side effects of drug trials", [][]string{
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
	text := "A total of 123 patients who undergo the drug trials reported side effects, " +
		"of which there were 69 female patients and 54 male patients. " +
		"The most common side affect is depression, reported by 38 patients."
	docs := document.NewSegmenter().Segment("p", []string{text}, []*table.Table{tbl})
	if len(docs) != 1 {
		t.Fatalf("segmentation produced %d docs", len(docs))
	}
	return docs[0]
}

func findText(t *testing.T, doc *document.Document, value float64) int {
	t.Helper()
	for i, m := range doc.TextMentions {
		if m.Value == value {
			return i
		}
	}
	t.Fatalf("text mention with value %v not found", value)
	return -1
}

func findTable(t *testing.T, doc *document.Document, agg quantity.Agg, value float64) int {
	t.Helper()
	for i, m := range doc.TableMentions {
		if m.Agg == agg && m.Value == value {
			return i
		}
	}
	t.Fatalf("table mention %v=%v not found", agg, value)
	return -1
}

func TestVectorShapeAndRanges(t *testing.T) {
	doc := healthDoc(t)
	e := NewExtractor(DefaultConfig(), doc, nil)
	for xi := range doc.TextMentions {
		for ti := range doc.TableMentions {
			vec := e.Vector(xi, ti)
			if len(vec) != NumFeatures {
				t.Fatalf("vector length %d, want %d", len(vec), NumFeatures)
			}
			for f, v := range vec {
				if f == F9ScaleDiff || f == F10PrecisionDiff {
					if v < 0 {
						t.Errorf("feature %s negative: %v", Names[f], v)
					}
					continue
				}
				if v < 0 || v > 1 {
					t.Errorf("feature %s out of [0,1]: %v", Names[f], v)
				}
			}
		}
	}
}

func TestGoldPairScoresHigherThanRandomPair(t *testing.T) {
	doc := healthDoc(t)
	e := NewExtractor(DefaultConfig(), doc, nil)

	xi := findText(t, doc, 123)
	gold := findTable(t, doc, quantity.Sum, 123)
	wrong := findTable(t, doc, quantity.SingleCell, 15)

	goldVec := e.Vector(xi, gold)
	wrongVec := e.Vector(xi, wrong)

	if goldVec[F6RelDiff] != 0 {
		t.Errorf("gold pair rel diff = %v, want 0", goldVec[F6RelDiff])
	}
	if wrongVec[F6RelDiff] == 0 {
		t.Error("wrong pair rel diff should be > 0")
	}
	// f12: "total of 123" cues sum → strong match with the sum virtual cell.
	if goldVec[F12AggMatch] != StrongMatch {
		t.Errorf("gold agg match = %v, want StrongMatch", goldVec[F12AggMatch])
	}
	if wrongVec[F12AggMatch] >= goldVec[F12AggMatch] {
		t.Errorf("wrong pair agg match %v should be below gold %v", wrongVec[F12AggMatch], goldVec[F12AggMatch])
	}
}

func TestSurfaceSimilarityNormalization(t *testing.T) {
	tbl, err := table.New("t0", "", [][]string{
		{"metric", "value"},
		{"Revenue", "3,263"},
		{"Taxes", "179"},
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := document.NewSegmenter().Segment("p",
		[]string{"Revenue came to 3263 while taxes were 179 overall."},
		[]*table.Table{tbl})
	if len(docs) != 1 {
		t.Fatal("no doc")
	}
	e := NewExtractor(DefaultConfig(), docs[0], nil)
	xi := findText(t, docs[0], 3263)
	ti := findTable(t, docs[0], quantity.SingleCell, 3263)
	if v := e.Vector(xi, ti)[F1SurfaceSim]; v != 1 {
		t.Errorf("surface sim of 3263 vs 3,263 = %v, want 1 (comma-insensitive)", v)
	}
}

func TestContextFeatureDiscriminates(t *testing.T) {
	doc := healthDoc(t)
	e := NewExtractor(DefaultConfig(), doc, nil)

	// "38 patients ... depression" should overlap the Depression row context
	// more than the Rash row.
	xi := findText(t, doc, 38)
	depr := findTable(t, doc, quantity.SingleCell, 38) // Depression total
	rash := findTable(t, doc, quantity.SingleCell, 15) // Rash male

	deprV := e.Vector(xi, depr)
	rashV := e.Vector(xi, rash)
	if deprV[F2LocalOverlap] <= rashV[F2LocalOverlap] {
		t.Errorf("local overlap: depression %v should beat rash %v",
			deprV[F2LocalOverlap], rashV[F2LocalOverlap])
	}
}

func TestUnitMatchLevels(t *testing.T) {
	tests := []struct {
		x, t string
		want float64
	}{
		{"USD", "USD", StrongMatch},
		{"", "", WeakMatch},
		{"USD", "", WeakMismatch},
		{"", "EUR", WeakMismatch},
		{"USD", "EUR", StrongMismatch},
		{"%", "bps", StrongMatch}, // compatible units
	}
	for _, tc := range tests {
		if got := unitMatch(tc.x, tc.t); got != tc.want {
			t.Errorf("unitMatch(%q,%q) = %v, want %v", tc.x, tc.t, got, tc.want)
		}
	}
}

func TestAggMatchLevels(t *testing.T) {
	sum := []quantity.Agg{quantity.Sum}
	tests := []struct {
		cued []quantity.Agg
		agg  quantity.Agg
		want float64
	}{
		{sum, quantity.Sum, StrongMatch},
		{sum, quantity.Avg, StrongMismatch},
		{sum, quantity.SingleCell, WeakMismatch},
		{nil, quantity.SingleCell, WeakMatch},
		{nil, quantity.Sum, WeakMismatch},
	}
	for _, tc := range tests {
		if got := aggMatch(tc.cued, tc.agg); got != tc.want {
			t.Errorf("aggMatch(%v,%v) = %v, want %v", tc.cued, tc.agg, got, tc.want)
		}
	}
}

func TestMasks(t *testing.T) {
	full := FullMask()
	if full.Count() != NumFeatures {
		t.Errorf("full mask count = %d", full.Count())
	}
	noQuantity := WithoutGroup(GroupQuantity)
	if noQuantity.Count() != NumFeatures-5 {
		t.Errorf("w/o quantity count = %d, want %d", noQuantity.Count(), NumFeatures-5)
	}
	noSurface := WithoutGroup(GroupSurface)
	if noSurface.Count() != NumFeatures-1 {
		t.Errorf("w/o surface count = %d, want %d", noSurface.Count(), NumFeatures-1)
	}
	noContext := WithoutGroup(GroupContext)
	if noContext.Count() != NumFeatures-6 {
		t.Errorf("w/o context count = %d, want %d", noContext.Count(), NumFeatures-6)
	}

	vec := make([]float64, NumFeatures)
	for i := range vec {
		vec[i] = float64(i)
	}
	reduced := noSurface.Apply(vec)
	if len(reduced) != NumFeatures-1 {
		t.Fatalf("reduced length = %d", len(reduced))
	}
	if reduced[0] != float64(F2LocalOverlap) {
		t.Errorf("first kept feature = %v, want f2", reduced[0])
	}
}

func TestGroupOfCoversAllFeatures(t *testing.T) {
	counts := map[Group]int{}
	for f := 0; f < NumFeatures; f++ {
		counts[GroupOf(f)]++
	}
	if counts[GroupSurface] != 1 || counts[GroupContext] != 6 || counts[GroupQuantity] != 5 {
		t.Errorf("group sizes = %v, want 1/6/5", counts)
	}
}

func TestTextMentionAggsExposed(t *testing.T) {
	doc := healthDoc(t)
	e := NewExtractor(DefaultConfig(), doc, nil)
	xi := findText(t, doc, 123)
	aggs := e.mentionAgg[xi]
	found := false
	for _, a := range aggs {
		if a == quantity.Sum {
			found = true
		}
	}
	if !found {
		t.Errorf("mention 'total of 123' should cue sum, got %v", aggs)
	}
}

func TestNormalizeSurface(t *testing.T) {
	if normalizeSurface("3,263") != "3263" {
		t.Error("commas not stripped")
	}
	if normalizeSurface("37K EUR") != "37keur" {
		t.Errorf("got %q", normalizeSurface("37K EUR"))
	}
}
