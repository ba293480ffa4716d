package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"briq"
	"briq/internal/core"
	"briq/internal/corpus"
)

// BenchmarkAlignBatch times POST /v1/align/batch of eight tableS pages on a
// cached untrained server whose cache already holds every document, through
// the full middleware, with allocations:
//
//	hit   every page hits its page entry and is answered from the cache,
//	      never parsed;
//	miss  every page misses its page entry, so it is parsed, segmented
//	      keys-only and keyed, and its documents hit: the path each batch
//	      page took before pages had entries.
//
// A miss page ends in an HTML comment holding a counter that changes every
// iteration, which moves the page key but not the documents.
func BenchmarkAlignBatch(b *testing.B) {
	cfg := corpus.TableSConfig(1)
	cfg.Pages = 8
	var pages []batchPage
	for _, pg := range corpus.Generate(cfg).Pages {
		pages = append(pages, batchPage{ID: pg.ID, HTML: pg.HTML() + "<!--00000000-->"})
	}
	body, err := json.Marshal(batchRequest{Pages: pages})
	if err != nil {
		b.Fatal(err)
	}
	counters := counterSpans(body)
	if len(counters) != len(pages) {
		b.Fatalf("%d counters in the body, want one per page (%d)", len(counters), len(pages))
	}

	for _, tc := range []struct {
		name string
		miss bool
	}{{"hit", false}, {"miss", true}} {
		b.Run(tc.name, func(b *testing.B) {
			srv := newServer(briq.New(briq.WithWorkers(1), briq.WithCache(64<<20)), serverOptions{})
			h := srv.routes()
			post := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/align/batch", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %.300s", rec.Code, rec.Body.String())
				}
			}
			post() // align every document once
			aligned := srv.metrics.stages.Stage(core.StageClassify).Snapshot().Count
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tc.miss {
					for _, at := range counters {
						copy(body[at:at+8], fmt.Sprintf("%08d", i+1))
					}
				}
				post()
			}
			b.StopTimer()
			if n := srv.metrics.stages.Stage(core.StageClassify).Snapshot().Count; n != aligned {
				b.Fatalf("%d documents aligned while timing, want 0: every document must hit", n-aligned)
			}
		})
	}
}

// counterSpans returns the offsets of the eight-digit counters that end
// every page of a batch body.
func counterSpans(body []byte) []int {
	var out []int
	marker := []byte("\\u003c!--")
	for i := 0; ; {
		j := bytes.Index(body[i:], marker)
		if j < 0 {
			return out
		}
		i += j + len(marker)
		out = append(out, i)
	}
}
