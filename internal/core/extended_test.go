package core

import (
	"sync"
	"testing"

	"briq/internal/document"
	"briq/internal/quantity"
	"briq/internal/table"
)

// TestExtendedAggregations exercises the framework-supported aggregations
// the paper's experiments leave out (avg/min/max, §II-A): with extended
// virtual options, ranking phrases align to min/max virtual cells.
func TestExtendedAggregations(t *testing.T) {
	tbl, err := table.New("t0", "car prices in euro", [][]string{
		{"model", "price"},
		{"Focus", "34900"},
		{"A3", "36900"},
		{"Golf", "33800"},
	})
	if err != nil {
		t.Fatal(err)
	}
	seg := document.NewSegmenter()
	seg.VirtualOpts = table.ExtendedVirtualOptions()

	text := "The highest price reached a maximum of 36900 among the models, " +
		"while the cheapest model sold at a minimum of 33800."
	docs := seg.Segment("p", []string{text}, []*table.Table{tbl})
	if len(docs) != 1 {
		t.Fatal("segmentation failed")
	}
	doc := docs[0]

	// Both min and max virtual cells must exist among the candidates.
	var hasMin, hasMax bool
	for _, tm := range doc.TableMentions {
		switch tm.Agg {
		case quantity.Min:
			hasMin = true
		case quantity.Max:
			hasMax = true
		}
	}
	if !hasMin || !hasMax {
		t.Fatalf("extended virtual cells missing: min=%v max=%v", hasMin, hasMax)
	}

	als := NewPipeline().Align(doc)
	var maxOK, minOK bool
	for _, a := range als {
		if a.Value == 36900 && (a.Agg == quantity.Max || a.Agg == quantity.SingleCell) {
			maxOK = true
		}
		if a.Value == 33800 && (a.Agg == quantity.Min || a.Agg == quantity.SingleCell) {
			minOK = true
		}
	}
	if !maxOK {
		t.Errorf("maximum mention not aligned to 36900: %+v", als)
	}
	if !minOK {
		t.Errorf("minimum mention not aligned to 33800: %+v", als)
	}
}

// TestAlignAllConcurrencySafe aligns documents over shared tables from many
// goroutines on one pipeline, for the race detector (go test -race).
func TestAlignAllConcurrencySafe(t *testing.T) {
	tbl, err := table.New("t0", "counts recorded by group", [][]string{
		{"group", "count", "total"},
		{"a", "10", "30"},
		{"b", "20", "40"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var docs []*document.Document
	texts := []string{
		"Group a recorded 10 in the count column.",
		"A total of 30 was recorded for count.",
		"Group b recorded 20 for the count.",
		"The total column summed to 70 overall.",
		"Counts reached 40 for the total of group b.",
		"Another 10 appeared in the record.",
	}
	for i, text := range texts {
		ds := document.NewSegmenter().Segment(string(rune('a'+i)), []string{text}, []*table.Table{tbl})
		docs = append(docs, ds...)
	}
	p := NewPipeline()
	var wg sync.WaitGroup
	for trial := 0; trial < 5; trial++ {
		for _, doc := range docs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Align(doc)
			}()
		}
	}
	wg.Wait()
}
