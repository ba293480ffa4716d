package facts

import (
	"testing"

	"briq/internal/core"
	"briq/internal/document"
	"briq/internal/table"
)

func alignedDoc(t *testing.T) (*document.Document, []core.Alignment) {
	t.Helper()
	tbl, err := table.New("t0", "quarterly earnings of retailers ($ millions)", [][]string{
		{"Company Name", "Q3 2012", "Q3 2013"},
		{"Bed Bath Inc", "232.8", "237.2"},
		{"Container Store Group", "6.86", "9.49"},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := "Bed Bath Inc earned 232.8 million in the Q3 2012 quarter. " +
		"A total of 239.66 million was recorded for Q3 2012 overall."
	docs := document.NewSegmenter().Segment("p", []string{text}, []*table.Table{tbl})
	if len(docs) != 1 {
		t.Fatal("segmentation failed")
	}
	doc := docs[0]
	return doc, core.NewPipeline().Align(doc)
}

func TestExtractSingleCellFact(t *testing.T) {
	doc, als := alignedDoc(t)
	facts := Extract(doc, als)
	if len(facts) == 0 {
		t.Fatal("no facts")
	}
	var earnings *Fact
	for i := range facts {
		if facts[i].Value == 232.8e6 && facts[i].Agg == "single-cell" {
			earnings = &facts[i]
		}
	}
	if earnings == nil {
		t.Fatalf("single-cell earnings fact missing: %+v", facts)
	}
	if earnings.Entity != "bed bath" {
		t.Errorf("entity = %q, want canonicalized 'bed bath'", earnings.Entity)
	}
	if earnings.Measure != "q3 2012" {
		t.Errorf("measure = %q, want column header", earnings.Measure)
	}
	if earnings.Confidence <= 0 {
		t.Error("fact without confidence")
	}
	if earnings.TextSurface == "" || earnings.DocID == "" || earnings.TableKey == "" {
		t.Errorf("provenance incomplete: %+v", earnings)
	}
}

func TestExtractAggregateFact(t *testing.T) {
	doc, als := alignedDoc(t)
	facts := Extract(doc, als)
	for _, f := range facts {
		if f.Agg == "sum" {
			if f.Measure == "" || f.Entity == "" {
				t.Errorf("aggregate fact unnamed: %+v", f)
			}
			return
		}
	}
	t.Skip("no aggregate alignment in this run")
}

func TestCanonicalEntity(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Bed Bath Inc", "bed bath"},
		{"Container Store Group", "container store"},
		{"Labor Party", "labor"},
		{"Northern District", "northern"},
		{"  Acme   Web  ", "acme web"},
		{"Group", ""},
		{"", ""},
	}
	for _, tc := range tests {
		if got := CanonicalEntity(tc.in); got != tc.want {
			t.Errorf("CanonicalEntity(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestDedupeKeepsHighestConfidence(t *testing.T) {
	facts := []Fact{
		{Entity: "acme", Measure: "income", Value: 7, Confidence: 0.5},
		{Entity: "acme", Measure: "income", Value: 7, Confidence: 0.9},
		{Entity: "acme", Measure: "income", Value: 8, Confidence: 0.4},
	}
	out := Dedupe(facts)
	if len(out) != 2 {
		t.Fatalf("want 2 facts after dedupe, got %d", len(out))
	}
	if out[0].Confidence != 0.9 {
		t.Errorf("highest-confidence duplicate not kept: %+v", out[0])
	}
	if out[0].Confidence < out[1].Confidence {
		t.Error("facts not sorted by confidence")
	}
}
