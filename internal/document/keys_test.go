package document_test

import (
	"fmt"
	"reflect"
	"testing"

	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/htmlx"
	"briq/internal/table"
)

// segmenters are the default segmenter and one with every aggregation plus
// two-cell sums, the configurations the extraction pin covers.
func segmenters() map[string]*document.Segmenter {
	extended := document.NewSegmenter()
	extended.VirtualOpts = table.ExtendedVirtualOptions()
	extended.VirtualOpts.PairSums = true
	return map[string]*document.Segmenter{"default": document.NewSegmenter(), "extended": extended}
}

// mentionPattern names each table mention of docs by the (document,
// position) at which its pointer first appears, so two segmentations share
// mentions between documents alike iff their patterns are equal.
func mentionPattern(docs []*document.Document) [][]string {
	first := map[*table.Mention]string{}
	out := make([][]string, len(docs))
	for i, d := range docs {
		for k, m := range d.TableMentions {
			name, ok := first[m]
			if !ok {
				name = fmt.Sprintf("%d.%d", i, k)
				first[m] = name
			}
			out[i] = append(out[i], name)
		}
	}
	return out
}

// requireSameSegmentation fails unless got and want hold deep-equal
// documents whose table mentions are shared between documents alike.
func requireSameSegmentation(t *testing.T, label string, got, want []*document.Document) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: documents differ from the eager segmentation", label)
	}
	if g, w := mentionPattern(got), mentionPattern(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: table mentions are shared differently:\ngot  %v\nwant %v", label, g, w)
	}
}

// requireSharedMentions fails unless docs hold one *table.Mention per
// mention of their distinct tables: documents that relate to one table share
// its mentions instead of building their own.
func requireSharedMentions(t *testing.T, label string, seg *document.Segmenter, docs []*document.Document) {
	t.Helper()
	distinct := map[*table.Mention]bool{}
	tables := map[*table.Table]bool{}
	for _, d := range docs {
		for _, m := range d.TableMentions {
			distinct[m] = true
		}
		for _, tb := range d.Tables {
			tables[tb] = true
		}
	}
	want := 0
	for tb := range tables {
		want += len(tb.Mentions(seg.VirtualOpts))
	}
	if len(distinct) != want {
		t.Fatalf("%s: %d distinct table mentions, want %d (one per mention of each table)", label, len(distinct), want)
	}
}

// TestSegmentPageKeysThenBuild requires SegmentPageKeys followed by
// BuildTableMentions to reproduce SegmentPageInfo on generated pages under
// both segmenters: the same counts and documents, keys-only documents with
// nil TableMentions, and after the build the same mentions in the same
// order, one pointer per mention shared by the page's documents. Building a
// whole batch of pages in one call gives the same documents.
func TestSegmentPageKeysThenBuild(t *testing.T) {
	cfg := corpus.TableSConfig(1)
	cfg.Pages = 60
	pages := corpus.Generate(cfg).Pages
	for name, seg := range segmenters() {
		var batch, batchWant []*document.Document
		shared := 0 // pages with a table several documents relate to
		multi := 0  // documents with more than one table
		for _, pg := range pages {
			page := htmlx.ParseString(pg.HTML())
			want, err := seg.SegmentPageInfo(pg.ID, page)
			if err != nil {
				t.Fatal(err)
			}
			got, err := seg.SegmentPageKeys(pg.ID, page)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumericTables != want.NumericTables || got.Paragraphs != want.Paragraphs || len(got.Docs) != len(want.Docs) {
				t.Fatalf("%s %s: keys-only counts %d tables, %d paragraphs, %d documents; eager %d, %d, %d", name, pg.ID,
					got.NumericTables, got.Paragraphs, len(got.Docs), want.NumericTables, want.Paragraphs, len(want.Docs))
			}
			for _, d := range got.Docs {
				if d.TableMentions != nil {
					t.Fatalf("%s %s: keys-only document has %d table mentions", name, d.ID, len(d.TableMentions))
				}
			}
			again, _ := seg.SegmentPageKeys(pg.ID, page)
			batch = append(batch, again.Docs...)
			batchWant = append(batchWant, want.Docs...)

			seg.BuildTableMentions(got.Docs)
			requireSameSegmentation(t, name+" "+pg.ID, got.Docs, want.Docs)
			requireSharedMentions(t, name+" "+pg.ID, seg, got.Docs)

			perTable := map[*table.Table]int{}
			for _, d := range want.Docs {
				if len(d.Tables) > 1 {
					multi++
				}
				for _, tb := range d.Tables {
					perTable[tb]++
				}
			}
			for _, n := range perTable {
				if n > 1 {
					shared++
					break
				}
			}
		}
		if shared == 0 || multi == 0 {
			t.Fatalf("%s: %d pages share a table and %d documents have several; the corpus exercises neither", name, shared, multi)
		}
		seg.BuildTableMentions(batch)
		requireSameSegmentation(t, name+" batch", batch, batchWant)
		requireSharedMentions(t, name+" batch", seg, batch)
		// Built documents keep their mentions.
		before := mentionPattern(batch)
		seg.BuildTableMentions(batch)
		if !reflect.DeepEqual(mentionPattern(batch), before) {
			t.Fatalf("%s: a second build changed built documents", name)
		}
	}
}
