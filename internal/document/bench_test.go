package document_test

import (
	"testing"

	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/htmlx"
	"briq/internal/table"
)

var benchDocs []*document.Document

// BenchmarkSegmentPage segments parsed tableS pages round-robin with the
// default segmenter, without HTML parsing. "full" is SegmentPage: table
// construction, paragraph↔table relatedness, text mentions and virtual
// cells, what /v1/align segments. "keys" is SegmentPageKeys, everything but
// the table mentions, what the batch and ingest paths segment before they
// look a document up. Each reports the table mentions built per page; the
// documents of a page share them.
func BenchmarkSegmentPage(b *testing.B) {
	cfg := corpus.TableSConfig(1)
	cfg.Pages = 40
	var pages []*htmlx.Page
	var ids []string
	for _, pg := range corpus.Generate(cfg).Pages {
		pages = append(pages, htmlx.ParseString(pg.HTML()))
		ids = append(ids, pg.ID)
	}
	seg := document.NewSegmenter()
	segmenters := []struct {
		name    string
		segment func(id string, page *htmlx.Page) ([]*document.Document, error)
	}{
		{"full", seg.SegmentPage},
		{"keys", func(id string, page *htmlx.Page) ([]*document.Document, error) {
			res, err := seg.SegmentPageKeys(id, page)
			return res.Docs, err
		}},
	}
	for _, s := range segmenters {
		b.Run(s.name, func(b *testing.B) {
			built := 0
			for i, page := range pages {
				docs, err := s.segment(ids[i], page)
				if err != nil {
					b.Fatal(err)
				}
				distinct := map[*table.Mention]bool{}
				for _, d := range docs {
					for _, m := range d.TableMentions {
						distinct[m] = true
					}
				}
				built += len(distinct)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(pages)
				benchDocs, _ = s.segment(ids[j], pages[j])
			}
			b.ReportMetric(float64(built)/float64(len(pages)), "mentions/page")
		})
	}
}
