package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/facts"
	"briq/internal/quantsearch"
	"briq/internal/serve"
)

const testFP = "fp-store-test"

// alignedCorpus returns generated documents with their pipeline alignments.
func alignedCorpus(t testing.TB, seed int64, pages int) ([]*document.Document, [][]core.Alignment) {
	t.Helper()
	cfg := corpus.TableSConfig(seed)
	cfg.Pages = pages
	c := corpus.Generate(cfg)
	p := core.NewPipeline()
	als := make([][]core.Alignment, len(c.Docs))
	for i, doc := range c.Docs {
		als[i] = p.Align(doc)
	}
	return c.Docs, als
}

// addDoc records one aligned document the way a gate-less facade call does.
func addDoc(s *Store, doc *document.Document, als []core.Alignment) {
	s.Add([]*document.Document{doc}, []serve.Key{s.DocumentKey(doc)}, [][]core.Alignment{als})
}

func battery() []quantsearch.Query {
	return []quantsearch.Query{
		{Op: quantsearch.Above, Value: 0},
		{Op: quantsearch.Below, Value: 1000},
		{Op: quantsearch.Between, Value: 5, Value2: 500},
		{Op: quantsearch.Above, Value: 10, Unit: "USD"},
		{Keywords: []string{"total"}, Op: quantsearch.Above, Value: 0},
		{Keywords: []string{"revenue", "income"}, Op: quantsearch.Below, Value: 1e9},
	}
}

func TestPersistReplayEquivalence(t *testing.T) {
	docs, als := alignedCorpus(t, 3, 8)
	dir := t.TempDir()

	s1, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		addDoc(s1, doc, als[i])
	}
	want := make([][]quantsearch.Result, len(battery()))
	for i, q := range battery() {
		want[i] = s1.Search(q)
	}
	wantEntities := s1.Entities()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	gate := serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 16 << 20})
	s2, err := Open(Options{Dir: dir, Fingerprint: testFP, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	for i, q := range battery() {
		got := s2.Search(q)
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("query %d: replayed store returns %d results, want %d", i, len(got), len(want[i]))
		}
	}
	if got := s2.Entities(); !reflect.DeepEqual(got, wantEntities) {
		t.Errorf("entities diverge after replay: %v vs %v", got, wantEntities)
	}
	for _, e := range wantEntities {
		if !reflect.DeepEqual(s2.FactsFor(e), s1.FactsFor(e)) {
			t.Errorf("facts for %q diverge after replay", e)
		}
	}

	c := s2.Counters()
	if c["warm_documents"] != int64(len(docs)) || c["documents"] != int64(len(docs)) {
		t.Errorf("warm counters = %v, want %d docs", c, len(docs))
	}

	// The gate was warm-loaded: every stored document is a cache hit.
	for i, doc := range docs {
		v, ok := gate.Lookup(s2.DocumentKey(doc))
		if !ok {
			t.Fatalf("doc %d not warm in gate", i)
		}
		got := v.([]core.Alignment)
		if len(got) != len(als[i]) {
			t.Errorf("doc %d: warm alignments %d, want %d", i, len(got), len(als[i]))
		}
		for j := range got {
			if got[j] != als[i][j] {
				t.Errorf("doc %d alignment %d: %+v != %+v (Agg round-trip?)", i, j, got[j], als[i][j])
			}
		}
	}
}

// TestIncrementalVsRebuild is the acceptance equivalence test: the store's
// incrementally-built index must match a from-scratch rebuild of the stored
// corpus, at every prefix.
func TestIncrementalVsRebuild(t *testing.T) {
	docs, als := alignedCorpus(t, 5, 6)
	s, err := Open(Options{Dir: t.TempDir(), Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	view := facts.NewView()
	for n, doc := range docs {
		addDoc(s, doc, als[n])
		view.Add(facts.Extract(doc, als[n]))

		rebuilt := quantsearch.BuildIndex(docs[:n+1])
		for _, q := range battery() {
			if !reflect.DeepEqual(s.Search(q), rebuilt.Search(q)) {
				t.Fatalf("after %d docs, query %+v: incremental store != rebuilt index", n+1, q)
			}
		}
		for _, e := range view.Entities() {
			if !reflect.DeepEqual(s.FactsFor(e), view.Entity(e)) {
				t.Fatalf("after %d docs: facts for %q diverge from rebuilt view", n+1, e)
			}
		}
	}
}

// TestTornTailSkipped: a crash that tears the log's last append leaves
// either a torn line, which replay skips, or a final record lacking only
// its newline, which replay applies. Either way the next Open's first
// append must start a line of its own, so the document it records is live
// after the following replay and nothing more is skipped.
func TestTornTailSkipped(t *testing.T) {
	docs, als := alignedCorpus(t, 7, 4)
	last := len(docs) - 1
	for _, tc := range []struct {
		name        string
		tear        func(log []byte) []byte
		wantSkipped int64
	}{
		{"torn line", func(log []byte) []byte {
			return append(log, `{"kind":"doc","key":"abc123","trunc`...)
		}, 1},
		{"newline missing", func(log []byte) []byte {
			return log[:len(log)-1]
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, err := Open(Options{Dir: dir, Fingerprint: testFP})
			if err != nil {
				t.Fatal(err)
			}
			for i, doc := range docs[:last] {
				addDoc(s1, doc, als[i])
			}
			want := s1.Search(battery()[0])
			live := s1.Counters()["live_documents"]
			s1.Close()

			path := filepath.Join(dir, logName)
			log, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tear(log), 0o644); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
			if err != nil {
				t.Fatal(err)
			}
			if got := s2.Counters()["replay_skipped"]; got != tc.wantSkipped {
				t.Errorf("replay_skipped = %d, want %d", got, tc.wantSkipped)
			}
			if got := s2.Search(battery()[0]); !reflect.DeepEqual(got, want) {
				t.Error("torn tail corrupted replayed state")
			}
			addDoc(s2, docs[last], als[last])
			s2.Close()

			s3, err := Open(Options{Dir: dir, Fingerprint: testFP})
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			c := s3.Counters()
			if c["live_documents"] != live+1 {
				t.Errorf("live_documents = %d after the append and a reopen, want %d", c["live_documents"], live+1)
			}
			if c["replay_skipped"] != tc.wantSkipped {
				t.Errorf("replay_skipped = %d after the append and a reopen, want %d", c["replay_skipped"], tc.wantSkipped)
			}
		})
	}
}

func TestFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(Options{Dir: dir, Fingerprint: "fp-b"}); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
	}
	// "" adopts the recorded fingerprint — the offline reader path.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Fingerprint() != "fp-a" {
		t.Errorf("adopted fingerprint = %q, want fp-a", s2.Fingerprint())
	}
}

// TestOpenRefusesOlderVersion: a directory written under an older store
// format holds document keys the running code no longer computes, so Open
// refuses it instead of serving or extending it.
func TestOpenRefusesOlderVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, metaName), []byte(`{"version":2,"fingerprint":"`+testFP+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err == nil || !strings.Contains(err.Error(), "version 2, want 3") {
		t.Fatalf("Open on a version-2 directory: err = %v, want one saying version 2, want 3", err)
	}
}

// TestConcurrentAddAndSearch exercises the index's order maintenance under
// concurrency (run with -race): the writer merges its adds into the
// postings under the write lock, and a keyword reader and a keyword-free
// reader, each a page at a time and in full, share the read lock; the
// quiesced store must agree with a from-scratch rebuild.
func TestConcurrentAddAndSearch(t *testing.T) {
	docs, als := alignedCorpus(t, 13, 12)
	s, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i, doc := range docs {
			addDoc(s, doc, als[i])
		}
	}()
	read := func(keywords bool) {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, q := range battery() {
				if (len(q.Keywords) > 0) == keywords {
					s.Search(q)
					s.SearchTop(q, 20)
				}
			}
		}
	}
	go read(true)
	go read(false)
	wg.Wait()

	// Quiesced, results must match a from-scratch rebuild of the same docs.
	rebuilt, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		addDoc(rebuilt, doc, als[i])
	}
	for _, q := range battery() {
		if !reflect.DeepEqual(s.Search(q), rebuilt.Search(q)) {
			t.Fatalf("query %+v: concurrent-add store disagrees with rebuild", q)
		}
	}
}

// searchUnderReadLock fails t unless Search(q) on a store of 4 pages
// returns its results while the test holds the read lock, as another reader
// would.
func searchUnderReadLock(t *testing.T, q quantsearch.Query) {
	t.Helper()
	docs, als := alignedCorpus(t, 13, 4)
	s, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range docs {
		addDoc(s, doc, als[i])
	}
	want := s.Search(q)
	if len(want) == 0 {
		t.Fatalf("%+v finds nothing", q)
	}

	s.mu.RLock()
	done := make(chan []quantsearch.Result, 1)
	go func() { done <- s.Search(q) }()
	select {
	case got := <-done:
		s.mu.RUnlock()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("search under a held read lock: %d results, want %d", len(got), len(want))
		}
	case <-time.After(5 * time.Second):
		s.mu.RUnlock()
		<-done
		t.Fatalf("Search(%+v) blocked while another reader held the read lock", q)
	}
}

// TestKeywordSearchTakesReadLock: a keyword search runs under the read lock
// alone, so keyword readers never wait on each other.
func TestKeywordSearchTakesReadLock(t *testing.T) {
	searchUnderReadLock(t, quantsearch.Query{Keywords: []string{"total"}, Op: quantsearch.Above, Value: 0})
}

// TestKeywordFreeSearchTakesReadLock: a keyword-free search, which reads the
// value posting, also runs under the read lock alone, because every writer
// leaves that posting in order before it unlocks.
func TestKeywordFreeSearchTakesReadLock(t *testing.T) {
	searchUnderReadLock(t, quantsearch.Query{Op: quantsearch.Above, Value: 0})
}

// TestReaderModeNeverCreates: opening with Fingerprint "" (offline readers,
// briq-search -store) must fail on a directory that is not a store instead of
// silently materializing a fresh empty one — a mistyped path should be an
// error, not 0 results plus a junk directory with fingerprint "".
func TestReaderModeNeverCreates(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-store")
	if _, err := Open(Options{Dir: missing}); !errors.Is(err, ErrNotStore) {
		t.Fatalf("err = %v, want ErrNotStore", err)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("reader-mode Open created the directory")
	}

	// An existing directory without meta.json is equally not a store.
	empty := t.TempDir()
	if _, err := Open(Options{Dir: empty}); !errors.Is(err, ErrNotStore) {
		t.Fatalf("err = %v, want ErrNotStore", err)
	}
	if _, err := os.Stat(filepath.Join(empty, "meta.json")); !os.IsNotExist(err) {
		t.Fatal("reader-mode Open wrote meta.json")
	}

	// A writer (real fingerprint) still creates stores from nothing.
	s, err := Open(Options{Dir: missing, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(Options{Dir: missing}) // and now the reader adopts it
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Fingerprint() != testFP {
		t.Errorf("adopted fingerprint = %q, want %q", s2.Fingerprint(), testFP)
	}
}

func TestDuplicateDocumentDropped(t *testing.T) {
	docs, als := alignedCorpus(t, 9, 2)
	s, err := Open(Options{Fingerprint: testFP}) // memory-only
	if err != nil {
		t.Fatal(err)
	}
	addDoc(s, docs[0], als[0])
	size := s.Counters()["index_entries"]
	addDoc(s, docs[0], als[0])
	c := s.Counters()
	if c["duplicate_documents"] != 1 || c["documents"] != 1 {
		t.Errorf("counters = %v, want 1 duplicate, 1 document", c)
	}
	if c["index_entries"] != size {
		t.Error("duplicate add changed the index")
	}
	if c["persistent"] != 0 || c["log_bytes"] != 0 {
		t.Errorf("memory-only store reports persistence: %v", c)
	}
}

func TestCacheWriteThrough(t *testing.T) {
	docs, als := alignedCorpus(t, 11, 2)
	dir := t.TempDir()
	gate := serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 16 << 20})
	s, err := Open(Options{Dir: dir, Fingerprint: testFP, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}

	// Documents alone write document records only.
	addDoc(s, docs[0], als[0])
	if got := s.Counters()["cache_records"]; got != 0 {
		t.Errorf("cache_records = %d after adding a document, want 0", got)
	}

	// A page entry is logged once, however often it is recorded.
	pageKey := gate.PageKey("p0", "<html>page</html>")
	s.Add(docs[1:2], keysOf(s, docs[1:2]), als[1:2])
	s.AddPage(pageKey, keysOf(s, docs[:2]))
	s.AddPage(pageKey, keysOf(s, docs[:2]))
	if c := s.Counters(); c["cache_records"] != 1 || c["documents"] != 2 || c["duplicate_documents"] != 0 {
		t.Errorf("counters after a page entry and its repeat = %v, want 1 cache record, 2 documents", c)
	}
	s.Close()

	// Restart: both the doc keys and the page key are warm.
	gate2 := serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 16 << 20})
	s2, err := Open(Options{Dir: dir, Fingerprint: testFP, Gate: gate2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, doc := range docs[:2] {
		v, ok := gate2.Lookup(s2.DocumentKey(doc))
		if !ok {
			t.Fatalf("doc %d key not warm after restart", i)
		}
		if got := v.([]core.Alignment); !reflect.DeepEqual(got, als[i]) {
			t.Errorf("warm doc %d entry = %+v, want its alignments %+v", i, got, als[i])
		}
	}
	v, ok := gate2.Lookup(pageKey)
	if !ok {
		t.Fatal("page key not warm after restart")
	}
	if got := v.([]serve.Key); !reflect.DeepEqual(got, keysOf(s2, docs[:2])) {
		t.Errorf("warm page entry = %v, want the page's document keys", got)
	}
	c := s2.Counters()
	if c["warm_cache_records"] != 1 || c["warm_documents"] != 2 {
		t.Errorf("warm counters = %v", c)
	}
}

// TestBatchPageRecord: AddPage logs a page entry once, as a "cache" record
// carrying only page_docs, and a restart warms the same entry back. A page
// with no documents gets an entry with none; a record one of whose keys does
// not decode is skipped whole; and a "cache" record in the shape logs held
// before page entries held document keys — alignments, no page_docs —
// replays as an entry with no documents, not as a skipped line.
func TestBatchPageRecord(t *testing.T) {
	docs, als := alignedCorpus(t, 11, 2)
	dir := t.TempDir()
	gate := serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 16 << 20})
	s, err := Open(Options{Dir: dir, Fingerprint: testFP, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	page := gate.PageKey("p0", "<html>page</html>")
	empty := gate.PageKey("empty", "<p>no tables</p>")
	docKeys := keysOf(s, docs)
	s.AddPage(page, docKeys)
	s.AddPage(page, docKeys)
	s.AddPage(empty, nil)
	if got := s.Counters()["cache_records"]; got != 2 {
		t.Errorf("cache_records = %d, want 2 (the page once, and the empty page)", got)
	}
	if _, ok := gate.Lookup(page); ok {
		t.Error("AddPage offered the entry to the gate; the caller does that")
	}
	s.Close()

	log, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	strs := make([]string, len(docKeys))
	for i, k := range docKeys {
		strs[i] = k.String()
	}
	want, _ := json.Marshal(record{Kind: "cache", Key: page.String(), PageDocs: strs})
	wantEmpty, _ := json.Marshal(record{Kind: "cache", Key: empty.String()})
	if got := string(log); got != string(want)+"\n"+string(wantEmpty)+"\n" {
		t.Errorf("log = %s, want %s and %s", got, want, wantEmpty)
	}

	gate2 := serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 16 << 20})
	s2, err := Open(Options{Dir: dir, Fingerprint: testFP, Gate: gate2})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := gate2.Lookup(page); !ok || !reflect.DeepEqual(v, docKeys) {
		t.Errorf("warm gate entry = %v, %v; want the page's document keys", v, ok)
	}
	if v, ok := gate2.Lookup(empty); !ok || len(v.([]serve.Key)) != 0 {
		t.Errorf("warm empty entry = %v, %v; want an entry with no documents", v, ok)
	}
	if c := s2.Counters(); c["warm_cache_records"] != 2 || c["cache_records"] != 2 {
		t.Errorf("warm counters = %v, want 2 cache records", c)
	}
	s2.Close()

	// One undecodable page_docs key skips the record.
	bad := strings.Replace(string(want), strs[len(strs)-1], "zz", 1)
	if err := os.WriteFile(filepath.Join(dir, logName), []byte(bad+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gate3 := serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 16 << 20})
	s3, err := Open(Options{Dir: dir, Fingerprint: testFP, Gate: gate3})
	if err != nil {
		t.Fatal(err)
	}
	if c := s3.Counters(); c["replay_skipped"] != 1 || c["cache_records"] != 0 {
		t.Errorf("counters after a bad page_docs key = %v, want 1 skipped and no cache record", c)
	}
	if _, ok := gate3.Lookup(page); ok {
		t.Error("a page record with a bad key warmed the gate")
	}
	s3.Close()

	// The older shape, a /v1/align page's alignments and no page_docs, is
	// filed under a key no request derives: replay neither warms nor counts
	// it, and does not count it as skipped either.
	old, _ := json.Marshal(record{Kind: "cache", Key: page.String(), Alignments: ToWire(als[0])})
	if err := os.WriteFile(filepath.Join(dir, logName), append(old, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	gate4 := serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 16 << 20})
	s4, err := Open(Options{Dir: dir, Fingerprint: testFP, Gate: gate4})
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if c := s4.Counters(); c["replay_skipped"] != 0 || c["warm_cache_records"] != 0 || c["cache_records"] != 0 {
		t.Errorf("counters after an alignment-carrying cache record = %v, want it passed over, nothing skipped", c)
	}
	if v, ok := gate4.Lookup(page); ok {
		t.Errorf("an alignment-carrying cache record warmed entry %v", v)
	}
}

func TestNilStoreCounters(t *testing.T) {
	var s *Store
	c := s.Counters()
	if len(c) != len(CounterNames()) {
		t.Fatalf("nil Counters has %d keys, want %d", len(c), len(CounterNames()))
	}
	for _, name := range CounterNames() {
		if v, ok := c[name]; !ok || v != 0 {
			t.Errorf("counter %q = %d, %v", name, v, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// TestSinkIntegration drives the store through the facade seam: a pipeline
// with Sink + Gate persists fresh documents and a page entry exactly once,
// however often they are offered.
func TestSinkIntegration(t *testing.T) {
	docs, _ := alignedCorpus(t, 13, 3)
	p := core.NewPipeline()
	p.Gate = serve.NewEngine(serve.Config{Fingerprint: testFP, CacheBytes: 16 << 20})
	s, err := Open(Options{Dir: t.TempDir(), Fingerprint: testFP, Gate: p.Gate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p.Sink = s

	perDoc := make([][]core.Alignment, len(docs))
	for i, doc := range docs {
		perDoc[i] = p.Align(doc)
	}
	page := p.Gate.PageKey("p0", "<html>page</html>")
	for range 2 {
		p.Sink.Add(docs, keysOf(s, docs), perDoc)
		p.Sink.AddPage(page, keysOf(s, docs))
	}
	c := s.Counters()
	if c["documents"] != int64(len(docs)) || c["duplicate_documents"] != int64(len(docs)) || c["cache_records"] != 1 {
		t.Errorf("counters = %v, want %d documents and duplicates, 1 cache record", c, len(docs))
	}
	if s.Search(quantsearch.Query{Op: quantsearch.Above, Value: 0}) == nil {
		t.Error("no searchable entries after sink feeds")
	}
}
