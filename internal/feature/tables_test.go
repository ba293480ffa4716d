package feature

import (
	"math"
	"math/rand"
	"testing"

	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/htmlx"
	"briq/internal/table"
)

// segmentedPages are the multi-document pages of a corpus under one
// segmenter, each as its documents in page order.
type segmentedPages struct {
	segmenter string
	pages     [][]*document.Document
}

// multiDocPages segments generated tableS pages under the default segmenter
// and under one with every aggregation plus two-cell sums, and keeps the
// pages that yield more than one document.
func multiDocPages(t *testing.T, seed int64, pages int) []segmentedPages {
	t.Helper()
	extended := document.NewSegmenter()
	extended.VirtualOpts = table.ExtendedVirtualOptions()
	extended.VirtualOpts.PairSums = true
	out := []segmentedPages{{segmenter: "default"}, {segmenter: "extended"}}
	segs := []*document.Segmenter{document.NewSegmenter(), extended}

	cfg := corpus.TableSConfig(seed)
	cfg.Pages = pages
	for _, pg := range corpus.Generate(cfg).Pages {
		for i, seg := range segs {
			docs, err := seg.SegmentPage(pg.ID, htmlx.ParseString(pg.HTML()))
			if err != nil {
				t.Fatalf("page %s: %v", pg.ID, err)
			}
			if len(docs) > 1 {
				out[i].pages = append(out[i].pages, docs)
			}
		}
	}
	return out
}

// TestSharedTablesMatchPrivateExtractors: extractors of one page that share
// a Tables, visiting the documents in page order or in reverse and each
// asking for a random subset of its pairs in random order, return vectors
// bit-identical to an extractor with a Tables of its own that sweeps every
// pair. Sharing changes the order in which ids are interned and in which
// line sets are prepared; neither may move a value.
func TestSharedTablesMatchPrivateExtractors(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, sp := range multiDocPages(t, 4, 40) {
		name, pages := sp.segmenter, sp.pages
		compared, sharedTables := 0, 0
		for _, docs := range pages {
			want := make([][][]float64, len(docs)) // per document, per pair
			seen := map[*table.Table]int{}
			for d, doc := range docs {
				private := NewExtractor(DefaultConfig(), doc, nil)
				for xi := range doc.TextMentions {
					for ti := range doc.TableMentions {
						want[d] = append(want[d], private.Vector(xi, ti))
					}
				}
				for _, tbl := range doc.Tables {
					if seen[tbl]++; seen[tbl] == 2 {
						sharedTables++
					}
				}
			}
			for _, reverse := range []bool{false, true} {
				tables := NewTables()
				dst := make([]float64, NumFeatures)
				for k := range docs {
					d := k
					if reverse {
						d = len(docs) - 1 - k
					}
					doc := docs[d]
					e := NewExtractor(DefaultConfig(), doc, tables)
					for _, p := range rng.Perm(len(want[d])) {
						if rng.Intn(3) != 0 {
							continue // about a third of the pair space is requested
						}
						xi, ti := p/len(doc.TableMentions), p%len(doc.TableMentions)
						got := e.VectorInto(xi, ti, dst)
						for f := range got {
							if math.Float64bits(got[f]) != math.Float64bits(want[d][p][f]) {
								t.Fatalf("%s segmenter, doc %s (reverse=%v) pair (%d,%d) feature %s: shared %v, private %v",
									name, doc.ID, reverse, xi, ti, Names[f], got[f], want[d][p][f])
							}
						}
						compared++
					}
				}
			}
		}
		if len(pages) == 0 || compared == 0 || sharedTables == 0 {
			t.Fatalf("%s segmenter: vacuous: %d multi-document pages, %d vectors compared, %d tables shared by documents",
				name, len(pages), compared, sharedTables)
		}
		t.Logf("%s segmenter: %d multi-document pages, %d tables shared, %d vectors compared", name, len(pages), sharedTables, compared)
	}
}
