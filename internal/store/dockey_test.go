package store

import (
	"fmt"
	"strings"
	"testing"

	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/htmlx"
	"briq/internal/quantity"
	"briq/internal/serve"
	"briq/internal/table"
)

// keyedDoc segments one paragraph against one rows×cols numeric table with
// a header row and column. The paragraph is the same for every size, so two
// documents differ only in their table part.
func keyedDoc(t *testing.T, rows, cols int) *document.Document {
	t.Helper()
	grid := [][]string{{"item"}}
	for c := 0; c < cols; c++ {
		grid[0] = append(grid[0], fmt.Sprintf("year %d", 2000+c))
	}
	for r := 0; r < rows; r++ {
		row := []string{fmt.Sprintf("item %d", r)}
		for c := 0; c < cols; c++ {
			row = append(row, fmt.Sprint(10+7*r+3*c+r*c))
		}
		grid = append(grid, row)
	}
	tbl, err := table.New("pg-t0", "counts per item and year", grid)
	if err != nil {
		t.Fatal(err)
	}
	docs := document.NewSegmenter().Segment("pg", []string{
		"A total of 123 items were counted in 2003, with 69 of them in the first year.",
	}, []*table.Table{tbl})
	if len(docs) != 1 {
		t.Fatalf("segmented %d documents, want 1", len(docs))
	}
	return docs[0]
}

// TestDocumentKeyAllocsFlat guards the cost of keying a document: its
// allocations must not grow with the number of table mentions, which are
// mostly virtual cells and run to hundreds per document. One fmt call per
// mention would break this.
func TestDocumentKeyAllocsFlat(t *testing.T) {
	s, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	small, large := keyedDoc(t, 1, 3), keyedDoc(t, 5, 5)
	if small.Text != large.Text {
		t.Fatal("the two documents must share their text")
	}
	if n := len(small.TableMentions); n < 10 || n > 40 {
		t.Fatalf("small document has %d table mentions, want about 20", n)
	}
	if n := len(large.TableMentions); n < 500 || n > 1000 {
		t.Fatalf("large document has %d table mentions, want about 700", n)
	}
	allocs := func(d *document.Document) float64 {
		return testing.AllocsPerRun(50, func() { benchKey = s.DocumentKey(d) })
	}
	if a, b := allocs(small), allocs(large); b > a {
		t.Errorf("DocumentKey allocates %.0f times for %d table mentions but %.0f times for %d",
			b, len(large.TableMentions), a, len(small.TableMentions))
	}
}

// TestDocumentKeyCoversSource: a v3 document key hashes the document's
// source — its ID and page, its paragraph text and text mentions, and each
// related table's caption, headers and cell texts — not the table mentions
// derived from them. Each single edit of that source must move the key, and
// segmenting the same HTML again must not.
func TestDocumentKeyCoversSource(t *testing.T) {
	s, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	cfg := corpus.TableSConfig(1)
	cfg.Pages = 1
	pg := corpus.Generate(cfg).Pages[0]
	html := pg.HTML()
	firstDoc := func(page *htmlx.Page) *document.Document {
		t.Helper()
		docs, err := document.NewSegmenter().SegmentPage(pg.ID, page)
		if err != nil || len(docs) == 0 {
			t.Fatalf("segmenting %s: %d documents, %v", pg.ID, len(docs), err)
		}
		return docs[0]
	}
	doc := firstDoc(htmlx.ParseString(html))
	key := s.DocumentKey(doc)
	if again := s.DocumentKey(firstDoc(htmlx.ParseString(html))); again != key {
		t.Fatalf("segmenting the same HTML again moved the key: %s, then %s", key, again)
	}
	tbl := doc.Tables[0]
	if tbl.ID != pg.ID+"-t0" || len(tbl.ColHeaders) == 0 || len(tbl.RowHeaders) == 0 {
		t.Fatalf("document %s: first table %s has %d column and %d row headers, want %s-t0 with both",
			doc.ID, tbl.ID, len(tbl.ColHeaders), len(tbl.RowHeaders), pg.ID)
	}
	cell := tbl.NumericCells()[0]

	// Edits of the page: each is applied to a fresh parse of the HTML, which
	// is then segmented by a fresh Segmenter.
	pageEdits := []struct {
		name string
		edit func(para *htmlx.Paragraph, tb *htmlx.TableBlock)
	}{
		{"numeric cell text", func(_ *htmlx.Paragraph, tb *htmlx.TableBlock) {
			text := &tb.Grid[cell.Row+1][cell.Col+1]
			if *text != cell.Text {
				t.Fatalf("grid cell %q is not the table's first numeric cell %q", *text, cell.Text)
			}
			i := strings.LastIndexAny(*text, "0123456789")
			*text = (*text)[:i] + string('0'+((*text)[i]-'0'+1)%10) + (*text)[i+1:]
		}},
		{"caption", func(_ *htmlx.Paragraph, tb *htmlx.TableBlock) { tb.Caption += " (revised)" }},
		{"column header", func(_ *htmlx.Paragraph, tb *htmlx.TableBlock) { tb.Grid[0][1] += " revised" }},
		{"row header", func(_ *htmlx.Paragraph, tb *htmlx.TableBlock) { tb.Grid[1][0] += " revised" }},
		{"paragraph text", func(para *htmlx.Paragraph, _ *htmlx.TableBlock) { para.Text += " It was revised." }},
	}
	for _, pe := range pageEdits {
		page := htmlx.ParseString(html)
		var para *htmlx.Paragraph
		var tb *htmlx.TableBlock
		for _, b := range page.Blocks {
			switch b := b.(type) {
			case *htmlx.Paragraph:
				if para == nil && b.Text == doc.Text {
					para = b
				}
			case *htmlx.TableBlock:
				if tb == nil {
					tb = b
				}
			}
		}
		if para == nil || tb == nil {
			t.Fatalf("%s: page %s lost the document's paragraph or its first table", pe.name, pg.ID)
		}
		pe.edit(para, tb)
		edited := firstDoc(page)
		if edited.ID != doc.ID {
			t.Fatalf("%s: first document is %s, want %s", pe.name, edited.ID, doc.ID)
		}
		if s.DocumentKey(edited) == key {
			t.Errorf("%s edit left the document key unchanged", pe.name)
		}
	}

	// Edits of the document itself.
	docEdits := []struct {
		name string
		edit func(d *document.Document)
	}{
		{"document ID", func(d *document.Document) { d.ID += "x" }},
		{"page ID", func(d *document.Document) { d.PageID += "x" }},
		{"text mention value, text unchanged", func(d *document.Document) {
			d.TextMentions = append([]quantity.Mention(nil), d.TextMentions...)
			d.TextMentions[0].Value++
		}},
	}
	for _, de := range docEdits {
		edited := *doc
		de.edit(&edited)
		if s.DocumentKey(&edited) == key {
			t.Errorf("%s edit left the document key unchanged", de.name)
		}
	}
	if s.DocumentKey(doc) != key {
		t.Fatal("an edit of a copy moved the original document's key")
	}
}

var benchKey serve.Key

// BenchmarkDocumentKey keys generated documents round-robin: the content
// hash every store write, batch cache hit and ingest reuse check pays. It
// reports the numeric cells of a document's tables, which the key hashes.
func BenchmarkDocumentKey(b *testing.B) {
	cfg := corpus.TableSConfig(1)
	cfg.Pages = 40
	docs := corpus.Generate(cfg).Docs
	s, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		b.Fatal(err)
	}
	cells := 0
	for _, d := range docs {
		for _, t := range d.Tables {
			cells += len(t.NumericCells())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchKey = s.DocumentKey(docs[i%len(docs)])
	}
	b.ReportMetric(float64(cells)/float64(len(docs)), "cells/doc")
}
