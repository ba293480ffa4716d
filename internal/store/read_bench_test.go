package store

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
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

// recrawlBench is the store the SearchTop and upsert benchmarks use: 160
// tableS seed-1 pages, each ingested by one UpsertPage, then the first 40
// re-crawled with their first paragraph changed and their last document
// dropped, which leaves tombstones in the index beside the live entries.
var recrawlBench struct {
	once   sync.Once
	s      *Store
	groups []pageGroup
	qs     []quantsearch.Query
}

func recrawlStore(b *testing.B) (*Store, []pageGroup, []quantsearch.Query) {
	recrawlBench.once.Do(func() {
		docs, als := alignedCorpus(b, 1, 160)
		s, err := Open(Options{Fingerprint: testFP})
		if err != nil {
			panic(err)
		}
		groups := groupByPage(docs, als)
		for _, g := range groups {
			s.UpsertPage(g.id, g.docs, keysOf(s, g.docs), g.als)
		}
		for _, g := range groups[:40] {
			mdocs, mals, _ := mutatePage(g)
			s.UpsertPage(g.id, mdocs, keysOf(s, mdocs), mals)
		}
		var entries []quantsearch.Entry
		for _, d := range docs {
			entries = append(entries, quantsearch.EntriesFromDocument(d)...)
		}
		recrawlBench.s = s
		recrawlBench.groups = groups
		recrawlBench.qs = benchQueries(rand.New(rand.NewSource(1)), entries, 960)
	})
	if recrawlBench.s == nil {
		b.Fatal("re-crawled benchmark store not built")
	}
	return recrawlBench.s, recrawlBench.groups, recrawlBench.qs
}

// BenchmarkSearchTop reads a page of limit 20 or 100, as /v1/search does,
// from the re-crawled store (tombstones included): one-keyword queries
// round-robin for each of above, below and between, whose postings
// SearchTop walks from the first admitted entry to the page's end, and
// two-keyword and keyword-free queries, which it ranks through a heap. It
// reports the mean length of the lists the pages come from.
func BenchmarkSearchTop(b *testing.B) {
	s, _, qs := recrawlStore(b)
	if dead := s.index.Tombstones(); dead == 0 {
		b.Fatal("the re-crawled store's index holds no tombstones")
	}
	cases := map[string][]quantsearch.Query{}
	for i, q := range qs {
		cases[q.Op.String()] = append(cases[q.Op.String()], q)
		two := q
		two.Keywords = append(slices.Clone(q.Keywords), qs[(i+1)%len(qs)].Keywords...)
		cases["two_keywords"] = append(cases["two_keywords"], two)
		none := q
		none.Keywords = nil
		cases["no_keyword"] = append(cases["no_keyword"], none)
	}
	for _, name := range []string{"above", "below", "between", "two_keywords", "no_keyword"} {
		qs := cases[name]
		listed := 0
		for _, q := range qs {
			listed += len(s.Search(q))
		}
		for _, limit := range []int{20, 100} {
			b.Run(fmt.Sprintf("%s/%d", name, limit), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchResults, _ = s.SearchTop(qs[i%len(qs)], limit)
				}
				b.ReportMetric(float64(listed)/float64(len(qs)), "listed/op")
			})
		}
	}
}

// BenchmarkUpsertRecrawl re-crawls one page of the re-crawled store per
// operation, alternating between two versions of its first paragraph: the
// write that retracts the page's old entries and merges its new ones into
// ordered postings, with the index's compaction amortized across the run.
// The store is memory-only, so no log write is timed.
func BenchmarkUpsertRecrawl(b *testing.B) {
	s, groups, _ := recrawlStore(b)
	type version struct {
		docs []*document.Document
		keys []serve.Key
		als  [][]core.Alignment
	}
	var versions [2][]version
	for _, g := range groups[40:] {
		for v := range versions {
			first := *g.docs[0]
			first.Text += fmt.Sprintf(" Version %d of this paragraph.", v)
			docs := append([]*document.Document{&first}, g.docs[1:]...)
			als := make([][]core.Alignment, len(docs))
			als[0] = g.als[0]
			versions[v] = append(versions[v], version{docs, keysOf(s, docs), als})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg := versions[i/len(groups[40:])%2][i%len(groups[40:])]
		s.UpsertPage(pg.docs[0].PageID, pg.docs, pg.keys, pg.als)
	}
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
