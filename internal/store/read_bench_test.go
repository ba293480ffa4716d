package store

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/facts"
	"briq/internal/quantsearch"
	"briq/internal/serve"
)

// readBench is the store the read benchmarks query: 160 tableS seed-1
// pages, aligned and added once per test binary.
var readBench struct {
	once sync.Once
	s    *Store
	qs   []quantsearch.Query
	ents []string
}

func readStore(b *testing.B) (*Store, []quantsearch.Query, []string) {
	readBench.once.Do(func() {
		cfg := corpus.TableSConfig(1)
		cfg.Pages = 160
		docs := corpus.Generate(cfg).Docs
		s, err := Open(Options{Fingerprint: testFP})
		if err != nil {
			panic(err)
		}
		p := core.NewPipeline()
		for _, d := range docs {
			addDoc(s, d, p.Align(d))
		}
		var entries []quantsearch.Entry
		for _, d := range docs {
			entries = append(entries, quantsearch.EntriesFromDocument(d)...)
		}
		readBench.s = s
		readBench.qs = benchQueries(rand.New(rand.NewSource(1)), entries, 320)
		rng := rand.New(rand.NewSource(1))
		ents := s.Entities()
		for i := 0; i < 160; i++ {
			readBench.ents = append(readBench.ents, ents[rng.Intn(len(ents))])
		}
	})
	if readBench.s == nil {
		b.Fatal("read benchmark store not built")
	}
	return readBench.s, readBench.qs, readBench.ents
}

// benchQueries samples one-keyword queries from index entries the way the
// end-to-end benchmark's search_mixed workload does: a keyword of four or
// more letters from the entry's header, entity or caption, a comparison
// against the entry's value, every other query parsed from natural language
// and the rest structured, with the entry's unit when it reads back as
// itself.
func benchQueries(rng *rand.Rand, entries []quantsearch.Entry, n int) []quantsearch.Query {
	ops := []quantsearch.Comparison{quantsearch.Above, quantsearch.Below, quantsearch.Between}
	var out []quantsearch.Query
	for len(out) < n {
		e := entries[rng.Intn(len(entries))]
		var words []string
		for _, s := range []string{e.Header, e.Entity, e.Caption} {
			for _, w := range strings.Fields(strings.ToLower(s)) {
				if len(w) >= 4 && strings.Trim(w, "abcdefghijklmnopqrstuvwxyz") == "" {
					words = append(words, w)
				}
			}
		}
		if len(words) == 0 {
			continue
		}
		kw := words[rng.Intn(len(words))]
		op := ops[rng.Intn(len(ops))]
		if len(out)%2 == 0 {
			if op == quantsearch.Between {
				op = quantsearch.Above
			}
			q, err := quantsearch.ParseQuery(fmt.Sprintf("%s %s %s", kw, op, strconv.FormatFloat(math.Abs(e.Value), 'f', -1, 64)))
			if err == nil {
				out = append(out, q)
			}
			continue
		}
		q := quantsearch.Query{Keywords: []string{kw}, Op: op, Value: e.Value}
		if op == quantsearch.Between {
			q.Value, q.Value2 = min(e.Value, e.Value*1.5), max(e.Value, e.Value*1.5)
		}
		if u, err := quantsearch.ParseQuery("x of 1 " + e.Unit); e.Unit != "" && err == nil && u.Unit == e.Unit {
			q.Unit = e.Unit
		}
		out = append(out, q)
	}
	return out
}

var (
	benchResults []quantsearch.Result
	benchFacts   []facts.Fact
)

// BenchmarkSearch runs one-keyword quantity queries round-robin against the
// store, as /v1/search does before paging. It reports the mean result count.
func BenchmarkSearch(b *testing.B) {
	s, qs, _ := readStore(b)
	results := 0
	for _, q := range qs {
		results += len(s.Search(q))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResults = s.Search(qs[i%len(qs)])
	}
	b.ReportMetric(float64(results)/float64(len(qs)), "results/query")
}

// BenchmarkFactsFor looks up sampled entities' facts round-robin, as
// /v1/facts does before paging. It reports the mean fact count.
func BenchmarkFactsFor(b *testing.B) {
	s, _, ents := readStore(b)
	n := 0
	for _, e := range ents {
		n += len(s.FactsFor(e))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchFacts = s.FactsFor(ents[i%len(ents)])
	}
	b.ReportMetric(float64(n)/float64(len(ents)), "facts/query")
}

// BenchmarkStoreOpen replays the log of 160 tableS seed-1 pages, each
// ingested by one UpsertPage as /v1/ingest writes it, into a store with a
// gate, as a server boots on it.
func BenchmarkStoreOpen(b *testing.B) {
	docs, als := alignedCorpus(b, 1, 160)
	dir := b.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range groupByPage(docs, als) {
		s.UpsertPage(g.id, g.docs, keysOf(s, g.docs), g.als)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gate := serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 64 << 20})
		s, err := Open(Options{Dir: dir, Fingerprint: testFP, Gate: gate})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
