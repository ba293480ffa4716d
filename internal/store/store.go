// Package store is the persistent aligned-corpus store: every successful
// alignment is recorded on disk, content-addressed by the same
// SHA-256(model fingerprint + content) identity the serve cache uses, and
// feeds an incrementally-maintained quantity index (quantsearch postings by
// keyword and value) plus a per-entity facts view as documents are
// aligned. There is no batch rebuild step: the in-memory index state after
// any sequence of adds is equivalent to re-indexing the stored corpus from
// scratch, and a restart replays the log to recover exactly that state —
// warm-loading the serve cache on the way.
//
// Re-ingesting a changed page is an upsert (UpsertPage): the page's stale
// documents are retracted from the index and facts view, unchanged documents
// are reused byte-for-byte, and the log records which keys each upsert
// supersedes so replay reconstructs the same latest-wins view. The
// invariant, gated by tests, is that the incremental state after any
// ingest/re-ingest sequence is byte-identical (Search and FactsFor output)
// to a from-scratch alignment of the final corpus.
//
// Every write is an explicit call from the code that produced the result:
// through the core.AlignmentSink seam the facade hands each set of freshly
// aligned documents to Add and each page entry it records — the page's
// document keys — to AddPage, and streaming ingest calls UpsertPage, then
// AddPage for the page's entry; a re-crawl its entry answers is counted by
// ReusePage. Documents dedup on the live document set, page entries on the
// set of page keys already logged.
//
// The on-disk format is an append-only NDJSON log (corpus.ndjson) beside a
// meta.json recording the model fingerprint. Appends are synchronous with
// alignment but never fail it: persistence errors are counted and logged,
// and a torn final line (crash mid-append) is skipped on replay; the first
// append after it starts a new line, so the torn bytes never swallow a
// record written later. A torn supersede record leaves the previous page
// version fully intact — the retraction and the first fresh document travel
// on one line.
package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"briq/internal/core"
	"briq/internal/document"
	"briq/internal/facts"
	"briq/internal/jsonread"
	"briq/internal/quantsearch"
	"briq/internal/serve"
)

// ErrFingerprintMismatch reports an existing store directory written under a
// different model fingerprint — its keys and alignments would not match the
// running pipeline. Point the server at a fresh directory (or the matching
// model bundle).
var ErrFingerprintMismatch = errors.New("store: model fingerprint does not match store directory")

// ErrNotStore reports a reader-mode Open (Fingerprint "") pointed at a
// directory with no meta.json. Readers never create stores — a mistyped path
// should fail loudly, not materialize a fresh empty store that answers every
// query with zero results.
var ErrNotStore = errors.New("store: directory is not a store (no meta.json)")

const (
	logName  = "corpus.ndjson"
	metaName = "meta.json"
	// version 3: document keys cover each table's source instead of its
	// virtual cells (core.HashDocument), and the fingerprint gained the
	// extraction version, so every key changed. Older stores are refused
	// rather than silently re-aligned under mismatched keys.
	version = 3
)

// Options configures Open.
type Options struct {
	// Dir is the store directory; "" runs the store memory-only (the
	// quantity index and facts view still work, nothing persists).
	Dir string
	// Fingerprint is the pipeline's model fingerprint. It scopes every key.
	// "" adopts the fingerprint recorded in an existing directory (offline
	// readers); a non-"" value must match the directory's meta.json.
	Fingerprint string
	// Gate, when non-nil, is warm-loaded with the replayed document and page
	// entries on Open and with every document UpsertPage stores.
	Gate *serve.Engine
	// Logf receives non-fatal store problems (persist errors, skipped
	// replay lines). nil discards.
	Logf func(format string, args ...any)
}

// Store is the persistent aligned-corpus store. All methods are safe for
// concurrent use; Counters is additionally safe on a nil *Store.
type Store struct {
	mu    sync.RWMutex
	dir   string
	fp    string
	gate  *serve.Engine
	logf  func(string, ...any)
	logF  *os.File // append handle; nil in memory mode
	index *quantsearch.Index
	view  *facts.View
	docs  map[serve.Key]*docState // live document records
	pages map[string][]serve.Key  // page ID → final ordered doc keys
	// pageKeys holds the page entry keys already logged as "cache" records.
	pageKeys map[serve.Key]bool

	// unterminated reports that the log does not end in a newline: a crash
	// tore its last append, or the last write failed. The next append
	// writes a newline first, so its record starts a line of its own
	// instead of sharing the torn one and being dropped at replay.
	unterminated bool

	// firstPersistErr logs the first failed append through the standard
	// logger exactly once, so silent data loss is visible even when
	// Options.Logf discards (e.g. -quiet servers).
	firstPersistErr sync.Once

	c counters
}

// docState is the in-memory materialization of one live document record —
// everything needed to serve it, re-attribute its tables, or retract it.
type docState struct {
	docID   string
	pageID  string
	als     []core.Alignment
	entries []quantsearch.Entry
	facts   []facts.Fact
	tables  []string // unique table IDs of entries, in first-seen order
}

type counters struct {
	documents     int64 // doc records accepted (fresh + replayed)
	duplicates    int64 // documents offered to Add that were already live
	cacheRecords  int64 // page entry records (fresh + replayed)
	warmDocuments int64 // doc records replayed from disk at Open
	warmCache     int64 // cache records replayed from disk at Open
	replaySkipped int64 // undecodable/torn log lines skipped at Open
	persistErrors int64 // appends that failed (state kept in memory)
	upsertedPages int64 // UpsertPage calls accepted
	retractedDocs int64 // stale documents retracted by upserts (incl. replay)

	// Query counters are atomic so concurrent reads share the RLock.
	searches     atomic.Int64
	factsQueries atomic.Int64
}

// record is one NDJSON log line. Kind "doc" is a stored document (optionally
// carrying upsert fields), "cache" a page entry (AddPage): the page's
// document keys in PageDocs, possibly none — older logs' "cache" records
// with alignments instead are skipped at replay, as no request reaches them.
// "retract" is a pure retraction (an upsert that removed documents without
// adding any).
//
// Upsert atomicity rides on line atomicity: Supersedes travels on the FIRST
// fresh record of an upsert (or on a bare "retract" record), so a torn line
// means neither the retraction nor the addition applied and the previous
// page version replays intact. PageDocs — the page's final ordered document
// keys — travels on every upsert-written record; replay re-walks that order
// so shared-table attribution matches a from-scratch build.
type record struct {
	Kind       string              `json:"kind"` // "doc" | "cache" | "retract"
	Key        string              `json:"key,omitempty"`
	DocID      string              `json:"doc_id,omitempty"`
	PageID     string              `json:"page_id,omitempty"`
	Alignments []WireAlignment     `json:"alignments,omitempty"`
	Entries    []quantsearch.Entry `json:"entries,omitempty"`
	Facts      []facts.Fact        `json:"facts,omitempty"`
	Supersedes []string            `json:"supersedes,omitempty"` // doc keys this record retracts
	PageDocs   []string            `json:"page_docs,omitempty"`  // PageID's final ordered doc keys; a page entry's doc keys on "cache"
}

type meta struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// Open opens (or creates) the store and replays the log into the quantity
// index, facts view and — when a Gate is given — the serve cache. Close
// releases the append handle.
func Open(opts Options) (*Store, error) {
	s := &Store{
		dir:      opts.Dir,
		fp:       opts.Fingerprint,
		gate:     opts.Gate,
		logf:     opts.Logf,
		index:    quantsearch.NewIndex(),
		view:     facts.NewView(),
		docs:     make(map[serve.Key]*docState),
		pages:    make(map[string][]serve.Key),
		pageKeys: make(map[serve.Key]bool),
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if opts.Dir != "" {
		// Reader mode (Fingerprint "") adopts an existing store and must
		// never create one: a mistyped -store path is an error, not a fresh
		// empty store with fingerprint "".
		if opts.Fingerprint == "" {
			if _, err := os.Stat(filepath.Join(opts.Dir, metaName)); err != nil {
				if os.IsNotExist(err) {
					return nil, fmt.Errorf("%w: %s", ErrNotStore, opts.Dir)
				}
				return nil, fmt.Errorf("store: %w", err)
			}
		}
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := s.checkMeta(); err != nil {
			return nil, err
		}
		if err := s.replay(); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(filepath.Join(opts.Dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.logF = f
	}
	return s, nil
}

// checkMeta validates or creates meta.json, adopting the directory's
// fingerprint when Options.Fingerprint was "".
func (s *Store) checkMeta() error {
	path := filepath.Join(s.dir, metaName)
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		var m meta
		if err := json.Unmarshal(b, &m); err != nil {
			return fmt.Errorf("store: bad %s: %w", metaName, err)
		}
		if m.Version != version {
			return fmt.Errorf("store: %s version %d, want %d (document identity changed; re-align into a fresh directory)",
				metaName, m.Version, version)
		}
		if s.fp == "" {
			s.fp = m.Fingerprint
			return nil
		}
		if m.Fingerprint != s.fp {
			return fmt.Errorf("%w: store has %.12s…, pipeline has %.12s…",
				ErrFingerprintMismatch, m.Fingerprint, s.fp)
		}
		return nil
	case os.IsNotExist(err):
		b, _ := json.MarshalIndent(meta{Version: version, Fingerprint: s.fp}, "", "  ")
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return nil
	default:
		return fmt.Errorf("store: %w", err)
	}
}

// replay streams the log, rebuilding in-memory state and warming the gate.
// Undecodable lines (torn final append after a crash) are counted and
// skipped. Supersede records re-apply their retractions so the final state
// is the latest-wins view of every page. It also notes whether the log ends
// in a newline (see Store.unterminated).
func (s *Store) replay() error {
	f, err := os.Open(filepath.Join(s.dir, logName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	// One bulk load: each posting is sorted once, after the last page walk,
	// instead of merged once per record.
	s.index.DeferOrder()
	c := &jsonread.Cursor{Intern: make(map[string]string)}
	// Every record an upsert writes carries its page's order, so a page is
	// walked once, in its last order, after the last line (reindexPage)
	// rather than once per record: a k-document upsert page is indexed
	// once, not k times, and leaves no tombstones behind.
	var walk []string // the pages a record ordered, in first-ordered order
	ordered := make(map[string]bool)
	order := func(pageID string, docKeys []string) {
		s.setPageOrder(pageID, docKeys)
		if !ordered[pageID] {
			ordered[pageID] = true
			walk = append(walk, pageID)
		}
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		r, err := decodeRecord(c, line)
		if err != nil {
			s.c.replaySkipped++
			s.logf("store: skipping undecodable log line: %v", err)
			continue
		}
		if r.Kind == "retract" {
			// Pure retraction: no key of its own.
			s.applyRetract(r.Supersedes)
			order(r.PageID, r.PageDocs)
			continue
		}
		key, err := serve.ParseKey(r.Key)
		if err != nil {
			s.c.replaySkipped++
			s.logf("store: skipping log line: %v", err)
			continue
		}
		switch r.Kind {
		case "doc":
			als := FromWire(r.Alignments)
			// Retraction first: the superseded keys are never the record's
			// own (an upsert's fresh docs are disjoint from its stale ones).
			s.applyRetract(r.Supersedes)
			if _, ok := s.docs[key]; ok {
				continue
			}
			s.registerDoc(key, &docState{
				docID:   r.DocID,
				pageID:  r.PageID,
				als:     als,
				entries: r.Entries,
				facts:   r.Facts,
				tables:  tablesOf(r.Entries),
			})
			s.c.warmDocuments++
			s.gate.Store(key, als, core.AlignmentsSize(als))
			if len(r.PageDocs) > 0 {
				order(r.PageID, r.PageDocs)
			} else {
				// Pre-upsert record shape: index directly in log order.
				s.index.AddEntries(r.Entries)
			}
		case "cache":
			// A record with alignments is a /v1/align page entry from
			// before page entries held document keys, filed under a key no
			// request derives any more: nothing would ever read it.
			if len(r.Alignments) > 0 || s.pageKeys[key] {
				continue
			}
			// One bad key would answer the page without that document.
			docKeys, err := parseKeys(r.PageDocs)
			if err != nil {
				s.c.replaySkipped++
				s.logf("store: skipping page record: %v", err)
				continue
			}
			s.pageKeys[key] = true
			s.c.cacheRecords++
			s.c.warmCache++
			s.gate.Store(key, docKeys, core.PageDocsSize(docKeys))
		default:
			s.c.replaySkipped++
			s.logf("store: skipping log line with unknown kind %q", r.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("store: replaying log: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if n := fi.Size(); n > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], n-1); err != nil {
			return fmt.Errorf("store: reading log tail: %w", err)
		}
		s.unterminated = last[0] != '\n'
	}
	for _, pageID := range walk {
		s.reindexPage(s.pages[pageID])
	}
	s.index.RestoreOrder()
	return nil
}

// Close releases the append handle. The in-memory index stays usable.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logF == nil {
		return nil
	}
	err := s.logF.Close()
	s.logF = nil
	return err
}

// Fingerprint returns the model fingerprint scoping the store's keys (the
// adopted one, for readers that opened with Fingerprint "").
func (s *Store) Fingerprint() string { return s.fp }

// DocumentKey returns the content address the store files a document under:
// core.HashDocument hashed through serve.KeyOf, exactly as the facade's
// corpus path keys the serve cache for the same fingerprint.
func (s *Store) DocumentKey(doc *document.Document) serve.Key {
	return serve.KeyOf(s.fp, func(w io.Writer) { core.HashDocument(w, doc) })
}

// Alignments returns the stored alignments for a live document identity.
// The ingest path uses it as the reuse check: a hit means classify/filter/
// resolve can be skipped for that document entirely.
func (s *Store) Alignments(key serve.Key) ([]core.Alignment, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, ok := s.docs[key]
	if !ok {
		return nil, false
	}
	return ds.als, true
}

// docStateOf derives the stored shape of one freshly aligned document.
func docStateOf(doc *document.Document, alignments []core.Alignment) *docState {
	entries := quantsearch.EntriesFromDocument(doc)
	return &docState{
		docID:   doc.ID,
		pageID:  doc.PageID,
		als:     alignments,
		entries: entries,
		facts:   facts.Extract(doc, alignments),
		tables:  tablesOf(entries),
	}
}

func tablesOf(entries []quantsearch.Entry) []string {
	var out []string
	seen := map[string]bool{}
	for _, e := range entries {
		if !seen[e.TableID] {
			seen[e.TableID] = true
			out = append(out, e.TableID)
		}
	}
	return out
}

// registerDoc records a live document under the held write lock: identity
// map, page membership (kept in arrival order for pages maintained via Add),
// facts, counters. Index entries are the caller's — their order matters for
// shared-table attribution.
func (s *Store) registerDoc(key serve.Key, ds *docState) {
	s.docs[key] = ds
	if ds.pageID != "" && !containsKey(s.pages[ds.pageID], key) {
		s.pages[ds.pageID] = append(s.pages[ds.pageID], key)
	}
	s.view.Add(ds.facts)
	s.c.documents++
}

func containsKey(keys []serve.Key, k serve.Key) bool {
	for _, have := range keys {
		if have == k {
			return true
		}
	}
	return false
}

// retractDoc removes one live document under the held write lock: its
// tables leave the index (table IDs are page-scoped, so only same-page
// documents can share them — the upsert's final-order walk re-adds entries
// for surviving documents), its facts leave the view, and its key becomes
// free so a later re-ingest of identical content is accepted again.
func (s *Store) retractDoc(key serve.Key) {
	ds, ok := s.docs[key]
	if !ok {
		return
	}
	s.index.RemoveTables(ds.tables)
	s.view.Remove(ds.facts)
	delete(s.docs, key)
	s.c.retractedDocs++
}

func (s *Store) applyRetract(keyStrs []string) {
	for _, ks := range keyStrs {
		k, err := serve.ParseKey(ks)
		if err != nil {
			s.c.replaySkipped++
			s.logf("store: skipping bad supersedes key: %v", err)
			continue
		}
		s.retractDoc(k)
	}
}

// parseKeys decodes a list of hex keys, failing on the first bad one.
func parseKeys(strs []string) ([]serve.Key, error) {
	keys := make([]serve.Key, len(strs))
	for i, ks := range strs {
		k, err := serve.ParseKey(ks)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// setPageOrder installs a page's document order as replay reads it from a
// record. Replay walks the page (reindexPage) once, after the last record.
func (s *Store) setPageOrder(pageID string, docKeys []string) {
	keys := make([]serve.Key, 0, len(docKeys))
	for _, ks := range docKeys {
		k, err := serve.ParseKey(ks)
		if err != nil {
			s.c.replaySkipped++
			s.logf("store: skipping bad page_docs key: %v", err)
			continue
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		delete(s.pages, pageID)
	} else {
		s.pages[pageID] = keys
	}
}

// reindexPage re-attributes a page's tables along its final document order:
// every present document's tables leave the index, then re-enter in order, so
// a table shared by several documents of the page is always presented by the
// first one in final page order — exactly what a from-scratch build of the
// final corpus does. Removal must complete for the whole page before any
// re-add, or a shared table re-added for an early document would be
// tombstoned again when a later document's old tables are dropped.
func (s *Store) reindexPage(keys []serve.Key) {
	for _, k := range keys {
		if ds, ok := s.docs[k]; ok {
			s.index.RemoveTables(ds.tables)
		}
	}
	for _, k := range keys {
		if ds, ok := s.docs[k]; ok {
			s.index.AddEntries(ds.entries)
		}
	}
}

// livePage reports, under the held lock, whether pageID's live documents
// are exactly keys, in order — the no-op re-crawl. A page's order can name
// a document that is not live: replay of an upsert torn after its first
// record installs the whole order, and the missing documents must then be
// stored by the next upsert rather than reported reused.
func (s *Store) livePage(pageID string, keys []serve.Key) bool {
	if !slices.Equal(s.pages[pageID], keys) {
		return false
	}
	for _, k := range keys {
		if _, ok := s.docs[k]; !ok {
			return false
		}
	}
	return true
}

// Add implements core.AlignmentSink: it records a set of freshly aligned
// documents. Each document not already live is stored — alignments, derived
// index entries, derived facts — and feeds the incremental index and facts
// view; live ones count as duplicates. Persistence failures never fail the
// alignment.
//
// keys[i] must equal DocumentKey(docs[i]), as for UpsertPage: the facade
// keyed each document for its cache lookup and hands the keys over.
func (s *Store) Add(docs []*document.Document, keys []serve.Key, perDoc [][]core.Alignment) {
	if len(keys) != len(docs) {
		panic(fmt.Sprintf("store: Add got %d keys for %d documents", len(keys), len(docs)))
	}
	states := make([]*docState, len(docs))
	for i, doc := range docs {
		states[i] = docStateOf(doc, perDoc[i])
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.index.DeferOrder()
	defer s.index.RestoreOrder() // before the unlock: readers see ordered postings
	for i, ds := range states {
		if _, ok := s.docs[keys[i]]; ok {
			s.c.duplicates++
			continue
		}
		s.registerDoc(keys[i], ds)
		s.index.AddEntries(ds.entries)
		s.append(record{
			Kind:       "doc",
			Key:        keys[i].String(),
			DocID:      ds.docID,
			PageID:     ds.pageID,
			Alignments: ToWire(ds.als),
			Entries:    ds.entries,
			Facts:      ds.facts,
		})
	}
}

// AddPage implements core.AlignmentSink: it logs one page entry — page is
// its serve.PageKeyOf key, docKeys its documents' keys in page order,
// possibly none — once, as a "cache" record that carries only page_docs, so
// a restart warms the entry back into the Gate. The caller has offered the
// entry to the Gate itself.
func (s *Store) AddPage(page serve.Key, docKeys []serve.Key) {
	strs := make([]string, len(docKeys))
	for i, k := range docKeys {
		strs[i] = k.String()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pageKeys[page] {
		return
	}
	s.pageKeys[page] = true
	s.c.cacheRecords++
	s.append(record{Kind: "cache", Key: page.String(), PageDocs: strs})
}

// PageUpsert reports what one UpsertPage call did.
type PageUpsert struct {
	// Reused is per input document: true when a live record with the same
	// content identity already existed and was kept untouched.
	Reused []bool
	// Retracted counts the page's stale documents removed by this upsert.
	Retracted int
	// PersistErrors counts append failures while persisting this upsert
	// (the in-memory view is still updated; the loss is durability only).
	PersistErrors int64
}

// UpsertPage replaces a page's document set with the given documents, in
// order. Documents whose content identity is already live are reused —
// alignments[i] is ignored for them and may be nil, which is how the ingest
// path skips re-alignment entirely. Stale documents (live for this page but
// absent from the new set) are retracted from the index and facts view, and
// the log records the retraction on the upsert's first line so replay
// reconstructs the same latest-wins state. An empty docs slice retracts the
// whole page.
//
// keys[i] must equal DocumentKey(docs[i]): callers key each document once,
// for their own reuse check, and hand the keys over rather than have the
// store hash every document a second time. A wrong key files the document
// under another identity.
//
// Callers that pass alignments[i] == nil must have confirmed the identity
// via Alignments first and must serialize upserts of the same page (the
// ingest path holds a per-page lock); a nil-alignment document that lost a
// race is registered with no alignments rather than dropped. Every document
// the upsert stores is also offered to the Gate, so a later corpus request
// for it is a cache hit.
func (s *Store) UpsertPage(pageID string, docs []*document.Document, keys []serve.Key, alignments [][]core.Alignment) PageUpsert {
	if len(keys) != len(docs) {
		panic(fmt.Sprintf("store: UpsertPage got %d keys for %d documents", len(keys), len(docs)))
	}
	states := make([]*docState, len(docs))
	for i, d := range docs {
		if alignments[i] != nil {
			states[i] = docStateOf(d, alignments[i])
		}
	}
	keyStrs := make([]string, len(keys))
	for i, k := range keys {
		keyStrs[i] = k.String()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	startErrs := s.c.persistErrors

	// The no-op re-crawl fast path: same documents in the same order means
	// nothing to retract, register, re-attribute, or log.
	if s.livePage(pageID, keys) {
		return s.reusedPage(len(keys))
	}
	up := PageUpsert{Reused: make([]bool, len(docs))}
	// The retractions and the page's re-walk are one bulk load: each posting
	// the page touches is merged once, before the unlock.
	s.index.DeferOrder()
	defer s.index.RestoreOrder()

	// Stale = live for this page but absent from the new set.
	final := make(map[serve.Key]bool, len(keys))
	for _, k := range keys {
		final[k] = true
	}
	var staleStrs []string
	for _, k := range s.pages[pageID] {
		if !final[k] {
			staleStrs = append(staleStrs, k.String())
		}
	}
	s.applyRetract(staleStrs)
	up.Retracted = len(staleStrs)

	// Register fresh documents and persist. Supersedes rides on the first
	// fresh record so retraction and addition share one atomic log line; if
	// no record was written but the page still changed — a pure retraction or
	// a pure reorder — a bare "retract" record carries the retraction and the
	// new order.
	carrySupersedes := staleStrs
	wrote := false
	for i := range docs {
		if _, ok := s.docs[keys[i]]; ok {
			up.Reused[i] = true
			continue
		}
		st := states[i]
		if st == nil {
			st = docStateOf(docs[i], nil)
		}
		s.registerDoc(keys[i], st)
		s.gate.Store(keys[i], st.als, core.AlignmentsSize(st.als))
		s.append(record{
			Kind:       "doc",
			Key:        keyStrs[i],
			DocID:      st.docID,
			PageID:     pageID,
			Alignments: ToWire(st.als),
			Entries:    st.entries,
			Facts:      st.facts,
			Supersedes: carrySupersedes,
			PageDocs:   keyStrs,
		})
		carrySupersedes = nil
		wrote = true
	}
	if !wrote {
		s.append(record{
			Kind:       "retract",
			PageID:     pageID,
			Supersedes: carrySupersedes,
			PageDocs:   keyStrs,
		})
	}

	// Install the final order and re-attribute the page's tables along it so
	// shared-table attribution matches a from-scratch build of the final
	// corpus — including when a surviving document moved ahead of the one
	// that used to present a shared table.
	if len(keys) == 0 {
		delete(s.pages, pageID)
	} else {
		s.pages[pageID] = append([]serve.Key(nil), keys...)
	}
	s.reindexPage(keys)
	s.c.upsertedPages++
	up.PersistErrors = s.c.persistErrors - startErrs
	return up
}

// ReusePage is UpsertPage's no-op path without the documents: when keys,
// in order, are exactly pageID's live documents, it returns what UpsertPage
// returns for them, counts the upsert as UpsertPage does, and returns the
// number of alignments the documents hold. Otherwise it reports false and
// counts nothing. A caller that knows a page's keys from its page entry
// answers an unchanged re-crawl without segmenting or keying the page.
func (s *Store) ReusePage(pageID string, keys []serve.Key) (up PageUpsert, alignments int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.livePage(pageID, keys) {
		return up, 0, false
	}
	for _, k := range keys {
		alignments += len(s.docs[k].als)
	}
	return s.reusedPage(len(keys)), alignments, true
}

// reusedPage counts, under the held lock, an upsert of n documents that
// were all live, and returns its PageUpsert.
func (s *Store) reusedPage(n int) PageUpsert {
	up := PageUpsert{Reused: make([]bool, n)}
	for i := range up.Reused {
		up.Reused[i] = true
	}
	s.c.upsertedPages++
	return up
}

// append writes one record under the held lock. Failures are counted and
// logged, never propagated: serving beats durability here. The first
// failure additionally goes through the standard logger so it is visible
// even when Options.Logf discards.
func (s *Store) append(r record) {
	if s.logF == nil {
		return
	}
	b, err := json.Marshal(r)
	if err == nil {
		line := append(b, '\n')
		if s.unterminated {
			line = append([]byte{'\n'}, line...)
		}
		_, err = s.logF.Write(line)
		s.unterminated = err != nil
	}
	if err != nil {
		s.c.persistErrors++
		s.logf("store: persist failed (state kept in memory): %v", err)
		s.firstPersistErr.Do(func() {
			log.Printf("store: first persist failure, corpus log %s is no longer complete: %v",
				filepath.Join(s.dir, logName), err)
		})
	}
}

// Search runs a quantity query against the incremental index and returns the
// full deterministically-ranked result list. It is SearchTop with no bound.
func (s *Store) Search(q quantsearch.Query) []quantsearch.Result {
	out, _ := s.SearchTop(q, math.MaxInt)
	return out
}

// SearchTop returns the first n results of Search(q) and a count that is
// the length of Search(q)'s list when that is at most n and above n
// otherwise (quantsearch.Index.SearchTop): a page of the list ranks only
// what it returns. Every query runs under the read lock alone, because each
// writer leaves the index's postings in order before it unlocks.
func (s *Store) SearchTop(q quantsearch.Query, n int) ([]quantsearch.Result, int) {
	s.c.searches.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.SearchTop(q, n)
}

// FactsFor returns the facts known for a canonical entity name, confidence
// descending.
func (s *Store) FactsFor(entity string) []facts.Fact {
	s.c.factsQueries.Add(1)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.view.Entity(entity)
}

// Entities returns the sorted entity names with at least one fact.
func (s *Store) Entities() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.view.Entities()
}

// counterNames is the stable store-counter schema; the /metrics golden test
// keys on it. Keep CounterNames and Counters in sync.
var counterNames = []string{
	"documents", "duplicate_documents", "cache_records",
	"warm_documents", "warm_cache_records", "replay_skipped",
	"persist_errors", "searches", "facts_queries",
	"upserted_pages", "retracted_documents", "live_documents",
	"index_entries", "fact_entities", "facts", "log_bytes", "persistent",
}

// CounterNames returns the full, stable schema of the Counters map.
func CounterNames() []string { return append([]string{}, counterNames...) }

// Counters returns store counters and gauges under the stable schema of
// CounterNames. A nil *Store reports the same schema, all zero — the
// /metrics shape must not depend on whether a store is attached.
func (s *Store) Counters() map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	for _, name := range counterNames {
		out[name] = 0
	}
	if s == nil {
		return out
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out["documents"] = s.c.documents
	out["duplicate_documents"] = s.c.duplicates
	out["cache_records"] = s.c.cacheRecords
	out["warm_documents"] = s.c.warmDocuments
	out["warm_cache_records"] = s.c.warmCache
	out["replay_skipped"] = s.c.replaySkipped
	out["persist_errors"] = s.c.persistErrors
	out["searches"] = s.c.searches.Load()
	out["facts_queries"] = s.c.factsQueries.Load()
	out["upserted_pages"] = s.c.upsertedPages
	out["retracted_documents"] = s.c.retractedDocs
	out["live_documents"] = int64(len(s.docs))
	out["index_entries"] = int64(s.index.Size())
	out["fact_entities"] = int64(s.view.EntityCount())
	out["facts"] = int64(s.view.Size())
	if s.logF != nil {
		out["persistent"] = 1
		if fi, err := s.logF.Stat(); err == nil {
			out["log_bytes"] = fi.Size()
		}
	}
	return out
}
