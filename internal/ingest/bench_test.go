package ingest

import (
	"context"
	"testing"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/serve"
	"briq/internal/store"
)

// BenchmarkIngestPage times (*Ingestor).Page per page, over 20 tableS
// seed-7 pages, on an untrained pipeline with a 64 MiB cache whose gate the
// memory store also warms, as a server's:
//
//   - cold: every document of every page is new and aligns;
//   - recrawl: one sentence was appended to each page's first paragraph,
//     so that document realigns, its old version is retracted, and the
//     rest are reused (each pass over the pages flips them to the other
//     version);
//   - identical: each page's bytes were ingested before, so its page entry
//     answers it from the store.
func BenchmarkIngestPage(b *testing.B) {
	cfg := corpus.TableSConfig(7)
	cfg.Pages = 20
	pages := corpus.Generate(cfg).Pages
	ids := make([]string, len(pages))
	var versions [2][]string // the crawl, then the re-crawl
	for i, pg := range pages {
		ids[i] = pg.ID
		versions[0] = append(versions[0], pg.HTML())
		pg.Paras[0] += " A revised figure was confirmed on re-crawl."
		versions[1] = append(versions[1], pg.HTML())
	}
	boot := func() *Ingestor {
		p := core.NewPipeline()
		p.Gate = serve.NewEngine(serve.Config{Fingerprint: p.Fingerprint(), CacheBytes: 64 << 20})
		st, err := store.Open(store.Options{Fingerprint: p.Fingerprint(), Gate: p.Gate})
		if err != nil {
			b.Fatal(err)
		}
		return New(p, st, Options{})
	}
	page := func(b *testing.B, ing *Ingestor, i int, html []string) Result {
		res := ing.Page(context.Background(), ids[i%len(ids)], html[i%len(ids)])
		if res.Error != "" {
			b.Fatalf("page %s: %s", res.PageID, res.Error)
		}
		return res
	}

	b.Run("cold", func(b *testing.B) {
		var ing *Ingestor
		for i := 0; i < b.N; i++ {
			if i%len(ids) == 0 {
				b.StopTimer()
				ing = boot()
				b.StartTimer()
			}
			page(b, ing, i, versions[0])
		}
	})
	b.Run("recrawl", func(b *testing.B) {
		ing := boot()
		for i := range ids {
			page(b, ing, i, versions[0])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			page(b, ing, i, versions[1-i/len(ids)%2])
		}
	})
	b.Run("identical", func(b *testing.B) {
		ing := boot()
		for i := range ids {
			page(b, ing, i, versions[0])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := page(b, ing, i, versions[0]); res.Realigned != 0 {
				b.Fatalf("identical page %s realigned %d documents", res.PageID, res.Realigned)
			}
		}
	})
}
