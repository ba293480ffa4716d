package feature_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/feature"
	"briq/internal/htmlx"
	"briq/internal/runtime"
	"briq/internal/table"
)

// TestAlignPageSharesTables: runtime.AlignPerDoc, the miss path of every
// alignment route and of ingestion, aligns a page's documents through one
// Tables, so a line set two documents of a page both reach is prepared once
// for the page. One call aligns 20 pages segmented keys-only, each page's
// documents in order, on one worker, with the classify gate off, so every
// table mention of every document is prepared: the count must equal the
// sum of each page's distinct line sets, not the sum of each document's.
func TestAlignPageSharesTables(t *testing.T) {
	p := core.NewPipeline()
	p.NoClassifyGate = true
	cfg := corpus.TableSConfig(6)
	cfg.Pages = 20
	var docs []*document.Document
	for _, pg := range corpus.Generate(cfg).Pages {
		seg, err := p.Segmenter.SegmentPageKeys(pg.ID, htmlx.ParseString(pg.HTML()))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, seg.Docs...)
	}

	var prepared int
	restore := feature.CountLineSets(&prepared)
	_, err := runtime.AlignPerDoc(context.Background(), p, docs, 1)
	restore()
	if err != nil {
		t.Fatal(err)
	}

	pageSets, docSets, shared := 0, 0, 0
	for lo := 0; lo < len(docs); {
		hi := lo
		distinct, perDoc := map[string]bool{}, 0
		for ; hi < len(docs) && docs[hi].PageID == docs[lo].PageID; hi++ {
			own := map[string]bool{}
			for _, tm := range docs[hi].TableMentions {
				key := tm.Table.ID + lineSet(tm)
				own[key], distinct[key] = true, true
			}
			perDoc += len(own)
		}
		if perDoc > len(distinct) {
			shared++
		}
		pageSets += len(distinct)
		docSets += perDoc
		lo = hi
	}
	if prepared != pageSets {
		t.Fatalf("%d documents: %d line sets prepared, want the pages' %d distinct (the documents' own add up to %d)",
			len(docs), prepared, pageSets, docSets)
	}
	if shared == 0 {
		t.Fatal("vacuous: no page has documents that share a line set")
	}
	t.Logf("%d line sets for %d pages' documents, %d with one Tables per document; %d pages share line sets across documents",
		prepared, cfg.Pages, docSets, shared)
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
