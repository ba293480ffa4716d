package document

import (
	"strings"
	"testing"

	"briq/internal/htmlx"
	"briq/internal/table"
)

func fig3Page() *htmlx.Page {
	return &htmlx.Page{
		Title: "Q3 Report",
		Blocks: []htmlx.Block{
			&htmlx.Paragraph{Text: "Sales were up 5% on both a reported and organic basis, " +
				"compared with the second quarter. Segment profit was up 11% and segment margins " +
				"increased 60 bps to 13.3% primarily driven by strong productivity."},
			&htmlx.TableBlock{
				Caption: "Table 1: Transportation Systems ($ Millions)",
				Grid: [][]string{
					{"metric", "2Q 2012", "2Q 2013", "% Change"},
					{"Sales", "900", "947", "5%"},
					{"Segment Profit", "114", "126", "11%"},
					{"Segment Margin", "12.7%", "13.3%", "60 bps"},
				},
			},
			&htmlx.TableBlock{
				Caption: "Table 2: Automation & Control ($ Millions)",
				Grid: [][]string{
					{"metric", "2Q 2012", "2Q 2013", "% Change"},
					{"Sales", "3,962", "4,065", "3%"},
					{"Segment Profit", "525", "585", "11%"},
					{"Segment Margin", "13.3%", "14.4%", "110 bps"},
				},
			},
		},
	}
}

func TestSegmentPageFig3(t *testing.T) {
	docs, err := NewSegmenter().SegmentPage("p0", fig3Page())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("want 1 document, got %d", len(docs))
	}
	doc := docs[0]
	// The paragraph shares vocabulary (sales, segment, profit, margins) with
	// both tables, so both must be related — that ambiguity is the point of
	// the Fig. 3 example.
	if len(doc.Tables) != 2 {
		t.Fatalf("want 2 related tables, got %d", len(doc.Tables))
	}
	if len(doc.TextMentions) != 4 {
		t.Errorf("want 4 text mentions (5%%, 11%%, 60 bps, 13.3%%), got %d", len(doc.TextMentions))
	}
	if len(doc.TableMentions) == 0 {
		t.Fatal("no table mentions")
	}
	if doc.TokenCount() == 0 {
		t.Error("token count is zero")
	}
}

func TestSegmentDropsQuantityFreeParagraphs(t *testing.T) {
	page := &htmlx.Page{Blocks: []htmlx.Block{
		&htmlx.Paragraph{Text: "This paragraph discusses methodology without any figures."},
		&htmlx.TableBlock{Grid: [][]string{{"a", "b"}, {"1", "2"}}},
	}}
	docs, err := NewSegmenter().SegmentPage("p", page)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 0 {
		t.Errorf("want 0 documents, got %d", len(docs))
	}
}

func TestSegmentNoTables(t *testing.T) {
	page := &htmlx.Page{Blocks: []htmlx.Block{
		&htmlx.Paragraph{Text: "Numbers like 42 with no tables."},
	}}
	docs, err := NewSegmenter().SegmentPage("p", page)
	if err != nil {
		t.Fatal(err)
	}
	if docs != nil {
		t.Errorf("want nil, got %d docs", len(docs))
	}
}

func TestSegmentSimilarityThreshold(t *testing.T) {
	// A paragraph about cars must not attach to a distant unrelated health
	// table when adjacency attachment is off.
	s := NewSegmenter()
	s.AttachAdjacent = false
	page := &htmlx.Page{Blocks: []htmlx.Block{
		&htmlx.Paragraph{Text: "The car costs 37000 EUR in Germany with low emission."},
		&htmlx.Paragraph{Text: "Unrelated filler paragraph between the two."},
		&htmlx.TableBlock{Grid: [][]string{
			{"side effects", "patients"},
			{"Rash", "35"},
			{"Depression", "38"},
		}},
	}}
	docs, err := s.SegmentPage("p", page)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 0 {
		t.Errorf("unrelated paragraph attached to table: %d docs", len(docs))
	}
}

func TestSegmentAdjacencyAttachment(t *testing.T) {
	// With adjacency on, the immediately preceding paragraph is related even
	// when vocabulary overlap is below the threshold.
	page := &htmlx.Page{Blocks: []htmlx.Block{
		&htmlx.Paragraph{Text: "Overall results came to 123 in the end."},
		&htmlx.TableBlock{Grid: [][]string{
			{"category", "count"},
			{"alpha", "69"},
			{"beta", "54"},
		}},
	}}
	docs, err := NewSegmenter().SegmentPage("p", page)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("adjacent paragraph not attached: %d docs", len(docs))
	}
}

func TestSegmentMultipleParagraphsShareTable(t *testing.T) {
	page := &htmlx.Page{Blocks: []htmlx.Block{
		&htmlx.Paragraph{Text: "Sales reached 900 units."},
		&htmlx.TableBlock{Caption: "sales and profit", Grid: [][]string{
			{"metric", "value"},
			{"Sales", "900"},
			{"Profit", "114"},
		}},
		&htmlx.Paragraph{Text: "Profit came to 114 overall."},
	}}
	docs, err := NewSegmenter().SegmentPage("p", page)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("want 2 documents, got %d", len(docs))
	}
	if docs[0].Tables[0] != docs[1].Tables[0] {
		t.Error("documents should share the same table instance")
	}
	if docs[0].ID == docs[1].ID {
		t.Error("document IDs must be distinct")
	}
}

func TestSegmentHeadingsExcluded(t *testing.T) {
	page := &htmlx.Page{Blocks: []htmlx.Block{
		&htmlx.Paragraph{Text: "Section 3 results 2013", Heading: true},
		&htmlx.Paragraph{Text: "Revenue was 890 in the final year."},
		&htmlx.TableBlock{Caption: "revenue final year", Grid: [][]string{
			{"year", "revenue"},
			{"one", "890"},
			{"two", "876"},
		}},
	}}
	docs, err := NewSegmenter().SegmentPage("p", page)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if strings.Contains(d.Text, "Section 3") {
			t.Error("heading turned into a document")
		}
	}
}

func TestSegmentFromSlices(t *testing.T) {
	tbl, err := table.New("t0", "counts", [][]string{
		{"name", "count"},
		{"a", "10"},
		{"b", "20"},
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := NewSegmenter().Segment("pg", []string{"The count reached 30 in total."}, []*table.Table{tbl})
	if len(docs) != 1 {
		t.Fatalf("want 1 doc, got %d", len(docs))
	}
	if docs[0].PageID != "pg" {
		t.Errorf("PageID = %q", docs[0].PageID)
	}
}

func TestSegmentSkipsMalformedTables(t *testing.T) {
	page := &htmlx.Page{Blocks: []htmlx.Block{
		&htmlx.Paragraph{Text: "Counts hit 10 overall."},
		&htmlx.TableBlock{Grid: [][]string{{"only header, no data rows of, numbers"}}},
		&htmlx.TableBlock{Caption: "counts overall", Grid: [][]string{
			{"name", "count"},
			{"a", "10"},
			{"b", "20"},
		}},
	}}
	docs, err := NewSegmenter().SegmentPage("p", page)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || len(docs[0].Tables) != 1 {
		t.Fatalf("malformed table handling wrong: %d docs", len(docs))
	}
}
