package core_test

import (
	"context"
	"testing"

	"briq"
	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/store"
)

// TestCorpusMissHashesEachDocumentOnce pins that a corpus run over a store
// keys each document once, for the cache lookup and the store record alike:
// the facade hands its keys to the store instead of the store keying every
// miss again. Without a gate (a server with -cache-bytes 0 and a -store
// directory) the store's DocumentKey keys them, under the pipeline's
// fingerprint rather than a nil gate's empty one.
func TestCorpusMissHashesEachDocumentOnce(t *testing.T) {
	cfg := corpus.TableSConfig(5)
	cfg.Pages = 6
	docs := corpus.Generate(cfg).Docs
	for _, tc := range []struct {
		name string
		opts []briq.Option
	}{
		{"gate", []briq.Option{briq.WithCache(8 << 20)}},
		{"no gate", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := briq.New(append(tc.opts, briq.WithWorkers(2))...)
			st, err := store.Open(store.Options{Fingerprint: p.Fingerprint(), Gate: p.Gate})
			if err != nil {
				t.Fatal(err)
			}
			p.Sink = st

			hashes := 0
			restore := core.CountDocumentHashes(&hashes)
			_, err = briq.AlignCorpus(context.Background(), p, docs)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if hashes != len(docs) {
				t.Errorf("a run of %d misses hashed documents %d times, want once each", len(docs), hashes)
			}
			if got := st.Counters()["documents"]; got != int64(len(docs)) {
				t.Errorf("store holds %d documents, want %d", got, len(docs))
			}
			for _, d := range docs {
				if _, ok := st.Alignments(st.DocumentKey(d)); !ok {
					t.Fatalf("document %s is not stored under the store's key for it", d.ID)
				}
			}
		})
	}
}
