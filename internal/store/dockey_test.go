package store

import (
	"fmt"
	"testing"

	"briq/internal/corpus"
	"briq/internal/document"
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

var benchKey serve.Key

// BenchmarkDocumentKey keys generated documents round-robin: the content
// hash every store write, batch cache hit and ingest reuse check pays.
func BenchmarkDocumentKey(b *testing.B) {
	cfg := corpus.TableSConfig(1)
	cfg.Pages = 40
	docs := corpus.Generate(cfg).Docs
	s, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		b.Fatal(err)
	}
	mentions := 0
	for _, d := range docs {
		mentions += len(d.TableMentions)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchKey = s.DocumentKey(docs[i%len(docs)])
	}
	b.ReportMetric(float64(mentions)/float64(len(docs)), "mentions/doc")
}
