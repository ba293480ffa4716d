package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"briq/internal/core"
	"briq/internal/document"
	"briq/internal/serve"
)

// pageGroup is one page's slice of an aligned corpus, in document order.
type pageGroup struct {
	id   string
	docs []*document.Document
	als  [][]core.Alignment
}

func groupByPage(docs []*document.Document, als [][]core.Alignment) []pageGroup {
	byID := map[string]int{}
	var groups []pageGroup
	for i, d := range docs {
		gi, ok := byID[d.PageID]
		if !ok {
			gi = len(groups)
			byID[d.PageID] = gi
			groups = append(groups, pageGroup{id: d.PageID})
		}
		groups[gi].docs = append(groups[gi].docs, d)
		groups[gi].als = append(groups[gi].als, als[i])
	}
	return groups
}

// keysOf keys docs the way the ingest path and the facade do before calling
// UpsertPage or Add.
func keysOf(s *Store, docs []*document.Document) []serve.Key {
	keys := make([]serve.Key, len(docs))
	for i, d := range docs {
		keys[i] = s.DocumentKey(d)
	}
	return keys
}

// mutated returns a copy of doc with its paragraph text changed — a new
// content identity at the same page position.
func mutated(d *document.Document) *document.Document {
	d2 := *d
	d2.Text = d.Text + " An additional note was appended on re-crawl."
	return &d2
}

// mutatePage derives the re-crawl shape of a page: the first document's
// paragraph changed, the last document dropped (when the page has more than
// one), the rest byte-identical. mals carries nil for the unchanged documents
// (the ingest reuse contract — their live records are kept); rebuildAls
// carries the alignments a from-scratch build of the final corpus would use.
func mutatePage(g pageGroup) (mdocs []*document.Document, mals, rebuildAls [][]core.Alignment) {
	mdocs = append(mdocs, mutated(g.docs[0]))
	mals = append(mals, g.als[0])
	rebuildAls = append(rebuildAls, g.als[0])
	for i := 1; i < len(g.docs)-1; i++ {
		mdocs = append(mdocs, g.docs[i])
		mals = append(mals, nil)
		rebuildAls = append(rebuildAls, g.als[i])
	}
	return mdocs, mals, rebuildAls
}

func assertStoreEqual(t *testing.T, got, want *Store, label string) {
	t.Helper()
	for i, q := range battery() {
		if !reflect.DeepEqual(got.Search(q), want.Search(q)) {
			t.Fatalf("%s: query %d diverges from from-scratch build", label, i)
		}
	}
	g, w := got.Entities(), want.Entities()
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: entities diverge: %v vs %v", label, g, w)
	}
	for _, e := range w {
		if !reflect.DeepEqual(got.FactsFor(e), want.FactsFor(e)) {
			t.Fatalf("%s: facts for %q diverge from from-scratch build", label, e)
		}
	}
}

// TestDocumentPartsSplitIdentity pins the identity decomposition the ingest
// path relies on: a changed paragraph moves the text part digest and leaves
// the table part digest put.
func TestDocumentPartsSplitIdentity(t *testing.T) {
	docs, _ := alignedCorpus(t, 21, 3)
	d := docs[0]
	text, tables := core.DocumentParts(d)
	mtext, mtables := core.DocumentParts(mutated(d))
	if mtext == text {
		t.Error("mutated paragraph did not change the text part digest")
	}
	if mtables != tables {
		t.Error("mutated paragraph changed the tables part digest")
	}
}

// TestUpsertPageEquivalence is the tentpole acceptance gate at the store
// layer: upserting every page, then re-upserting a mutated version of each
// (one paragraph changed, one document dropped), must leave search and facts
// state identical to a from-scratch build of the final corpus — and identical
// again after close + replay.
func TestUpsertPageEquivalence(t *testing.T) {
	docs, als := alignedCorpus(t, 23, 6)
	groups := groupByPage(docs, als)
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range groups {
		up := s.UpsertPage(g.id, g.docs, keysOf(s, g.docs), g.als)
		for i, r := range up.Reused {
			if r {
				t.Fatalf("cold upsert of %s reports doc %d reused", g.id, i)
			}
		}
		if up.Retracted != 0 {
			t.Fatalf("cold upsert of %s retracted %d docs", g.id, up.Retracted)
		}
	}

	// An identical re-upsert reuses everything, retracts nothing, and writes
	// nothing to the log.
	logPath := filepath.Join(dir, "corpus.ndjson")
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		up := s.UpsertPage(g.id, g.docs, keysOf(s, g.docs), make([][]core.Alignment, len(g.docs)))
		for i, r := range up.Reused {
			if !r {
				t.Fatalf("identical re-upsert of %s reports doc %d fresh", g.id, i)
			}
		}
		if up.Retracted != 0 {
			t.Fatalf("identical re-upsert of %s retracted %d docs", g.id, up.Retracted)
		}
	}
	if after, _ := os.Stat(logPath); after.Size() != before.Size() {
		t.Errorf("identical re-upserts grew the log by %d bytes", after.Size()-before.Size())
	}

	// The mutated crawl: reuse flags and retraction counts per page, and the
	// final corpus collected for the from-scratch comparison.
	var finalDocs []*document.Document
	var finalAls [][]core.Alignment
	for _, g := range groups {
		mdocs, mals, rebuildAls := mutatePage(g)
		up := s.UpsertPage(g.id, mdocs, keysOf(s, mdocs), mals)
		if up.Reused[0] {
			t.Fatalf("page %s: mutated document reported reused", g.id)
		}
		for i := 1; i < len(mdocs); i++ {
			if !up.Reused[i] {
				t.Fatalf("page %s: unchanged document %d reported fresh", g.id, i)
			}
		}
		wantRetracted := 1 // the first document's old identity
		if len(g.docs) >= 2 {
			wantRetracted = 2 // plus the dropped last document
		}
		if up.Retracted != wantRetracted {
			t.Fatalf("page %s: retracted %d docs, want %d", g.id, up.Retracted, wantRetracted)
		}
		finalDocs = append(finalDocs, mdocs...)
		finalAls = append(finalAls, rebuildAls...)
	}

	rebuilt, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for i := range finalDocs {
		addDoc(rebuilt, finalDocs[i], finalAls[i])
	}
	assertStoreEqual(t, s, rebuilt, "after mutated upserts")

	c := s.Counters()
	if c["live_documents"] != int64(len(finalDocs)) {
		t.Errorf("live_documents = %d, want %d", c["live_documents"], len(finalDocs))
	}
	if c["retracted_documents"] == 0 || c["upserted_pages"] == 0 {
		t.Errorf("upsert counters did not move: %v", c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay reconstructs the latest-wins view, not the full history.
	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertStoreEqual(t, s2, rebuilt, "after replay")
	if got := s2.Counters()["live_documents"]; got != int64(len(finalDocs)) {
		t.Errorf("replayed live_documents = %d, want %d", got, len(finalDocs))
	}
}

// TestUpsertPageFlipReaccepts drives the A→B→A page history: a document
// retracted by one crawl must be accepted again when a later crawl restores
// byte-identical content (its key was freed, not tombstoned forever).
func TestUpsertPageFlipReaccepts(t *testing.T) {
	docs, als := alignedCorpus(t, 29, 3)
	var g pageGroup
	for _, cand := range groupByPage(docs, als) {
		if len(cand.docs) >= 2 {
			g = cand
			break
		}
	}
	if len(g.docs) < 2 {
		t.Fatal("corpus has no multi-document page")
	}

	s, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	s.UpsertPage(g.id, g.docs, keysOf(s, g.docs), g.als)

	// Crawl B drops the first document.
	up := s.UpsertPage(g.id, g.docs[1:], keysOf(s, g.docs[1:]), make([][]core.Alignment, len(g.docs)-1))
	if up.Retracted != 1 {
		t.Fatalf("drop crawl retracted %d, want 1", up.Retracted)
	}

	// Crawl A again: the dropped document returns, identical content.
	backAls := make([][]core.Alignment, len(g.docs))
	backAls[0] = g.als[0]
	back := s.UpsertPage(g.id, g.docs, keysOf(s, g.docs), backAls)
	if back.Reused[0] {
		t.Fatal("re-added document reported reused — retraction left its key seen")
	}
	for i := 1; i < len(g.docs); i++ {
		if !back.Reused[i] {
			t.Fatalf("surviving document %d reported fresh on flip-back", i)
		}
	}

	rebuilt, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.docs {
		addDoc(rebuilt, g.docs[i], g.als[i])
	}
	assertStoreEqual(t, s, rebuilt, "after A→B→A flip")
}

// TestUpsertPageReorder covers the pure-reorder upsert: same documents, new
// order, nothing fresh and nothing stale. Shared-table attribution must
// follow the new first presenter, the order must persist (a bare retract
// record carries it), and replay must agree with a from-scratch build that
// saw the documents in the new order.
func TestUpsertPageReorder(t *testing.T) {
	docs, als := alignedCorpus(t, 43, 4)
	groups := groupByPage(docs, als)
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		s.UpsertPage(g.id, g.docs, keysOf(s, g.docs), g.als)
	}

	var finalDocs []*document.Document
	var finalAls [][]core.Alignment
	for _, g := range groups {
		rdocs := make([]*document.Document, len(g.docs))
		rals := make([][]core.Alignment, len(g.docs))
		for i := range g.docs {
			rdocs[i] = g.docs[len(g.docs)-1-i]
			rals[i] = g.als[len(g.als)-1-i]
		}
		up := s.UpsertPage(g.id, rdocs, keysOf(s, rdocs), make([][]core.Alignment, len(rdocs)))
		for i, r := range up.Reused {
			if !r {
				t.Fatalf("page %s: reorder reported doc %d fresh", g.id, i)
			}
		}
		if up.Retracted != 0 {
			t.Fatalf("page %s: reorder retracted %d docs", g.id, up.Retracted)
		}
		finalDocs = append(finalDocs, rdocs...)
		finalAls = append(finalAls, rals...)
	}

	rebuilt, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for i := range finalDocs {
		addDoc(rebuilt, finalDocs[i], finalAls[i])
	}
	assertStoreEqual(t, s, rebuilt, "after reorder upserts")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertStoreEqual(t, s2, rebuilt, "replay after reorder upserts")
}

// TestUpsertTornSupersede is the crash-safety satellite: a crash that tears
// the first record of an upsert — the line carrying both the retraction and
// the first fresh document — must leave replay on the previous crawl's
// complete state, not half-retracted.
func TestUpsertTornSupersede(t *testing.T) {
	docs, als := alignedCorpus(t, 31, 3)
	groups := groupByPage(docs, als)
	dir := t.TempDir()
	s1, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		s1.UpsertPage(g.id, g.docs, keysOf(s1, g.docs), g.als)
	}
	want := make([]any, len(battery()))
	for i, q := range battery() {
		want[i] = s1.Search(q)
	}
	wantEntities := s1.Entities()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "corpus.ndjson")
	st, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	v1Size := st.Size()

	// The mutated crawl of page 0 appends its upsert records...
	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	mdocs, mals, _ := mutatePage(groups[0])
	if up := s2.UpsertPage(groups[0].id, mdocs, keysOf(s2, mdocs), mals); up.Retracted == 0 {
		t.Fatal("mutated upsert retracted nothing — test shape is wrong")
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// ...and the crash tears its first record mid-line.
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) <= v1Size {
		t.Fatal("upsert appended nothing to tear")
	}
	lineEnd := bytes.IndexByte(data[v1Size:], '\n')
	if lineEnd <= 1 {
		t.Fatalf("first upsert record is %d bytes", lineEnd)
	}
	cut := v1Size + int64(lineEnd)/2
	if err := os.Truncate(logPath, cut); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := s3.Counters()["replay_skipped"]; got != 1 {
		t.Errorf("replay_skipped = %d, want 1", got)
	}
	for i, q := range battery() {
		if !reflect.DeepEqual(s3.Search(q), want[i]) {
			t.Fatalf("query %d: torn supersede record corrupted the previous crawl's state", i)
		}
	}
	if got := s3.Entities(); !reflect.DeepEqual(got, wantEntities) {
		t.Errorf("entities diverge after torn-tail replay")
	}
}

// TestConcurrentUpsertSearchReplay exercises upserts, searches and facts
// reads racing across pages (run with -race), then checks the quiesced state
// and its replay both match a from-scratch build of the final corpus.
func TestConcurrentUpsertSearchReplay(t *testing.T) {
	docs, als := alignedCorpus(t, 37, 8)
	groups := groupByPage(docs, als)
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}

	var finalMu sync.Mutex
	var finalDocs []*document.Document
	var finalAls [][]core.Alignment
	var wg sync.WaitGroup
	for _, g := range groups {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.UpsertPage(g.id, g.docs, keysOf(s, g.docs), g.als)
			mdocs, mals, rebuildAls := mutatePage(g)
			s.UpsertPage(g.id, mdocs, keysOf(s, mdocs), mals)
			finalMu.Lock()
			finalDocs = append(finalDocs, mdocs...)
			finalAls = append(finalAls, rebuildAls...)
			finalMu.Unlock()
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, q := range battery() {
				s.Search(q)
			}
			for _, e := range s.Entities() {
				s.FactsFor(e)
			}
		}
	}()
	wg.Wait()

	rebuilt, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	// Add order only matters within a page (shared-table attribution);
	// finalDocs preserves per-page order even though pages interleaved.
	for i := range finalDocs {
		addDoc(rebuilt, finalDocs[i], finalAls[i])
	}
	assertStoreEqual(t, s, rebuilt, "quiesced after concurrent upserts")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	assertStoreEqual(t, s2, rebuilt, "replay after concurrent upserts")
}

// TestReplayWalksEachPageOnce: every record of an upsert carries its page's
// order, and replay indexes each page once, in its last order, after the
// last line. A log of multi-document upsert pages with no retractions
// replays to an index with no tombstones, holding what the writing store
// held.
func TestReplayWalksEachPageOnce(t *testing.T) {
	docs, als := alignedCorpus(t, 43, 12)
	groups := groupByPage(docs, als)
	dir := t.TempDir()
	s1, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, g := range groups {
		s1.UpsertPage(g.id, g.docs, keysOf(s1, g.docs), g.als)
		if len(g.docs) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no page has two documents; the replay walk is untested")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if n := s2.index.Tombstones(); n != 0 {
		t.Errorf("replay left %d tombstones in the index, want 0", n)
	}
	if got, want := s2.Counters()["index_entries"], s1.Counters()["index_entries"]; got != want {
		t.Errorf("replayed index_entries = %d, the writing store held %d", got, want)
	}
	assertStoreEqual(t, s2, s1, "replay of cold upserts")
}

// TestUpsertAfterTornUpsert: a crash after the first record of a cold
// upsert replays the page's whole order with only its first document live.
// Re-sending the page must store the missing documents, not report them
// reused because the order already names them.
func TestUpsertAfterTornUpsert(t *testing.T) {
	docs, als := alignedCorpus(t, 43, 12)
	var g pageGroup
	for _, pg := range groupByPage(docs, als) {
		if len(pg.docs) > 1 {
			g = pg
			break
		}
	}
	if len(g.docs) < 2 {
		t.Fatal("no page has two documents")
	}
	dir := t.TempDir()
	s1, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	s1.UpsertPage(g.id, g.docs, keysOf(s1, g.docs), g.als)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "corpus.ndjson")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, int64(bytes.IndexByte(data, '\n')+1)); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Counters()["live_documents"]; got != 1 {
		t.Fatalf("torn replay has %d live documents, want 1", got)
	}
	up := s2.UpsertPage(g.id, g.docs, keysOf(s2, g.docs), g.als)
	for i, reused := range up.Reused {
		if reused != (i == 0) {
			t.Errorf("document %d reused = %v after the torn upsert, want %v", i, reused, i == 0)
		}
	}
	rebuilt, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.docs {
		addDoc(rebuilt, g.docs[i], g.als[i])
	}
	assertStoreEqual(t, s2, rebuilt, "re-sent page after a torn upsert")
}

// TestWritesLeaveOrderRestored: every write returns with the index's
// postings in the order SearchTop walks, since readers take only the read
// lock: Add, a cold UpsertPage, a re-crawl that retracts and re-walks, a
// pure retraction, and a replay.
func TestWritesLeaveOrderRestored(t *testing.T) {
	docs, als := alignedCorpus(t, 29, 8)
	groups := groupByPage(docs, als)
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	inOrder := func(label string, s *Store) {
		t.Helper()
		if err := s.index.CheckOrder(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	addDoc(s, groups[0].docs[0], groups[0].als[0])
	inOrder("Add", s)
	for _, g := range groups[1:] {
		s.UpsertPage(g.id, g.docs, keysOf(s, g.docs), g.als)
		inOrder("cold UpsertPage", s)
	}
	for _, g := range groups[1:] {
		mdocs, mals, _ := mutatePage(g)
		s.UpsertPage(g.id, mdocs, keysOf(s, mdocs), mals)
		inOrder("re-crawl UpsertPage", s)
	}
	last := groups[len(groups)-1]
	s.UpsertPage(last.id, nil, nil, nil)
	inOrder("retracting UpsertPage", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	inOrder("replay", s2)
}

// TestRecrawlTombstonesReclaimed: a live re-crawl tombstones every surviving
// entry of each page it changes, and the index compacts itself once they
// outnumber the live entries. Ten passes over 40 pages, each changing every
// page's first paragraph, leave no more tombstones than live entries after
// any pass, and answer as a store that ingested only that pass's pages.
func TestRecrawlTombstonesReclaimed(t *testing.T) {
	docs, als := alignedCorpus(t, 7, 40)
	groups := groupByPage(docs, als)
	s, err := Open(Options{Fingerprint: testFP})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		s.UpsertPage(g.id, g.docs, keysOf(s, g.docs), g.als)
	}
	for pass := 1; pass <= 10; pass++ {
		fresh, err := Open(Options{Fingerprint: testFP})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			first := *g.docs[0]
			first.Text += fmt.Sprintf(" Revision %d was confirmed on re-crawl.", pass)
			pdocs := append([]*document.Document{&first}, g.docs[1:]...)
			pals := make([][]core.Alignment, len(pdocs))
			pals[0] = g.als[0]
			s.UpsertPage(g.id, pdocs, keysOf(s, pdocs), pals)
			fresh.UpsertPage(g.id, pdocs, keysOf(fresh, pdocs), append([][]core.Alignment{g.als[0]}, g.als[1:]...))
		}
		if dead, live := s.index.Tombstones(), s.index.Size(); dead > live {
			t.Fatalf("pass %d: %d tombstones beside %d live entries", pass, dead, live)
		}
		assertStoreEqual(t, s, fresh, fmt.Sprintf("pass %d", pass))
	}
}
