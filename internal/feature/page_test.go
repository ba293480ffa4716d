package feature_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/feature"
	"briq/internal/htmlx"
	"briq/internal/table"
)

// TestAlignPageSharesTables: AlignPageDocsContext aligns a page's documents
// through one Tables, so a line set two documents both reach is prepared
// once for the page. The page path runs with the classify gate off, so
// every table mention of every document is prepared, and the count must
// equal the page's distinct line sets, not the sum of each document's.
func TestAlignPageSharesTables(t *testing.T) {
	var prepared int
	defer feature.CountLineSets(&prepared)()

	p := core.NewPipeline()
	p.NoClassifyGate = true
	cfg := corpus.TableSConfig(6)
	cfg.Pages = 20
	shared := 0
	for _, pg := range corpus.Generate(cfg).Pages {
		page := htmlx.ParseString(pg.HTML())
		prepared = 0
		docs, _, err := p.AlignPageDocsContext(context.Background(), pg.ID, page)
		if err != nil {
			continue // nothing to align on this page
		}
		distinct, perDoc := map[string]bool{}, 0
		for _, d := range docs {
			own := map[string]bool{}
			for _, tm := range d.TableMentions {
				key := tm.Table.ID + lineSet(tm)
				own[key], distinct[key] = true, true
			}
			perDoc += len(own)
		}
		if prepared != len(distinct) {
			t.Fatalf("page %s (%d documents): %d line sets prepared, want the page's %d distinct (the documents' own add up to %d)",
				pg.ID, len(docs), prepared, len(distinct), perDoc)
		}
		if perDoc > len(distinct) {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("vacuous: no page has documents that share a line set")
	}
	t.Logf("%d pages with line sets shared across documents", shared)
}

// lineSet names the sorted distinct rows and columns of tm's cells.
func lineSet(tm *table.Mention) string {
	rows, cols := map[int]bool{}, map[int]bool{}
	for _, ref := range tm.Cells {
		rows[ref.Row], cols[ref.Col] = true, true
	}
	sorted := func(m map[int]bool) []int {
		out := make([]int, 0, len(m))
		for l := range m {
			out = append(out, l)
		}
		sort.Ints(out)
		return out
	}
	return fmt.Sprint(sorted(rows), sorted(cols))
}
