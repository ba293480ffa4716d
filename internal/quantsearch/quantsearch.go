// Package quantsearch implements the paper's concluding vision (§XI):
// quantity queries over web tables — "Internet companies with annual income
// above 5 Mio. USD, electric cars with energy consumption below 100 MPGe".
// Aligned documents are indexed into (entity, context, value, unit) entries;
// queries combine keywords with a numeric comparison and a unit.
//
// The index is incremental: documents are added one at a time (Add) as they
// are aligned, and the index state after any Add sequence is equivalent to
// rebuilding from scratch over the same documents (BuildIndex). Entries are
// kept in keyword postings plus a value posting of every entry, so that
// queries read only the entries that can answer them.
//
// Every posting is kept in rank order as it grows: value descending, then
// table ID, row and column, the order Search ranks hits that match the same
// number of keywords. So SearchTop(q, n), the page read behind /v1/search,
// answers a query with one keyword, or none, by walking one posting from
// its first admissible entry and stopping after n+1 hits. Its count is
// therefore exact only up to n: the length of the full list when that is
// at most n, any number above n otherwise, which is all a page needs to
// decide whether another follows it.
package quantsearch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"briq/internal/document"
	"briq/internal/nlp"
	"briq/internal/quantity"
)

// Entry is one indexed table quantity with its provenance.
type Entry struct {
	DocID   string  `json:"doc_id"`
	TableID string  `json:"table_id"`
	Row     int     `json:"row"`
	Col     int     `json:"col"`
	Entity  string  `json:"entity"`  // the row header naming what the value describes
	Header  string  `json:"header"`  // the column header naming the measure
	Value   float64 `json:"value"`   // normalized value
	Unit    string  `json:"unit"`    // canonical unit, "" if unknown
	Caption string  `json:"caption"` // the table caption, part of the keyword context
}

// Index is an inverted index over entries, maintained incrementally. It is
// not safe for concurrent use; briq's persistent store wraps it in a lock.
//
// Every posting, each keyword's and the value posting of every entry, is
// kept in rank order (rankOrder), so a query reads a posting from its
// first admissible entry and stops once it has its page. AddEntries merges
// the ids it adds into the postings they join before it returns. A bulk
// load (store replay, BuildIndex) calls DeferOrder first: adds then only
// append, and RestoreOrder sorts each posting they touched once.
//
// Removal (RemoveTables) tombstones entries in place: postings keep the dead
// ids and every query path skips them, so removing and re-adding a table
// yields results byte-identical to an index that never held the old version
// (the result ranking never depends on entry ids). Once tombstones outnumber
// live entries the index compacts itself: it drops the dead ids from every
// posting and renumbers the entries, in id order, so no posting's order
// changes. That bounds the dead weight of a long re-crawl to the live size.
type Index struct {
	entries []Entry
	values  []float64           // entries' values, parallel to entries: rankOrder's first key, packed
	byToken map[string]*posting // lowercase token → the entries it names
	byTable map[string][]int    // table ID → entry ids (the removal postings)
	byValue posting             // every entry: the keyword-free posting
	seen    map[string]bool     // table IDs already indexed (cross-document dedup)
	dead    []bool              // tombstones, parallel to entries
	deadN   int

	touched  []*posting // keyword postings appended to since restoreOrder
	deferred bool       // a bulk load is in progress (DeferOrder)
	merge    []int      // restoreOrder's scratch
	rank     []int32    // restoreOrder's scratch: each id's position in byValue
}

// A posting lists entry ids, each once: ids[:head] in rankOrder, and
// ids[head:], appended since, in id order until restoreOrder merges them in.
type posting struct {
	ids  []int
	head int
}

// NewIndex returns an empty index ready for incremental Add calls.
func NewIndex() *Index {
	return &Index{
		byToken: make(map[string]*posting),
		byTable: make(map[string][]int),
		seen:    make(map[string]bool),
	}
}

// EntriesFromDocument derives the index entries for one document: one entry
// per numeric cell per table. It performs no cross-document deduplication —
// the index's Add methods handle that via table IDs.
func EntriesFromDocument(doc *document.Document) []Entry {
	var out []Entry
	seen := map[string]bool{}
	for _, tbl := range doc.Tables {
		if seen[tbl.ID] {
			continue
		}
		seen[tbl.ID] = true
		for _, cell := range tbl.NumericCells() {
			e := Entry{
				DocID:   doc.ID,
				TableID: tbl.ID,
				Row:     cell.Row,
				Col:     cell.Col,
				Value:   cell.Quantity.Value,
				Unit:    cell.Quantity.Unit,
				Caption: tbl.Caption,
			}
			if cell.Row < len(tbl.RowHeaders) {
				e.Entity = tbl.RowHeaders[cell.Row]
			}
			if cell.Col < len(tbl.ColHeaders) {
				e.Header = tbl.ColHeaders[cell.Col]
			}
			out = append(out, e)
		}
	}
	return out
}

// Add indexes every numeric cell of the document's tables. Tables already
// indexed by an earlier Add (same table ID) are skipped, so adding documents
// one by one is equivalent to BuildIndex over the whole slice. It returns
// the number of entries added.
func (ix *Index) Add(doc *document.Document) int {
	return ix.AddEntries(EntriesFromDocument(doc))
}

// AddEntries indexes pre-derived entries (e.g. replayed from a persistent
// store). Entries belonging to a table ID indexed by a *previous* call are
// skipped; entries within one call share the call's dedup scope, so a batch
// produced by EntriesFromDocument is either indexed whole or skipped whole
// per table. It returns the number of entries added. Outside a bulk load it
// merges the added ids into their postings, so every posting is in order
// when it returns.
func (ix *Index) AddEntries(entries []Entry) int {
	added := 0
	batch := map[string]bool{}
	// A table's entries repeat its caption, and each header and entity
	// once per row or column: each distinct string is tokenized once.
	words := map[string][]string{}
	var tokens []string
	for _, e := range entries {
		if ix.seen[e.TableID] && !batch[e.TableID] {
			continue
		}
		batch[e.TableID] = true
		tokens = tokens[:0]
		for _, s := range [...]string{e.Entity, e.Header, e.Caption} {
			ws, ok := words[s]
			if !ok {
				ws = nlp.ContentWords(s)
				words[s] = ws
			}
			for _, w := range ws {
				if !slices.Contains(tokens, w) {
					tokens = append(tokens, w)
				}
			}
		}
		ix.add(e, tokens)
		added++
	}
	for t := range batch {
		ix.seen[t] = true
	}
	if !ix.deferred {
		ix.restoreOrder()
	}
	return added
}

// add indexes e under each of its distinct content words, at the tails of
// its postings.
func (ix *Index) add(e Entry, tokens []string) {
	id := len(ix.entries)
	ix.entries = append(ix.entries, e)
	ix.values = append(ix.values, e.Value)
	ix.dead = append(ix.dead, false)
	ix.byTable[e.TableID] = append(ix.byTable[e.TableID], id)

	for _, w := range tokens {
		p := ix.byToken[w]
		if p == nil {
			p = new(posting)
			ix.byToken[w] = p
		}
		if p.head == len(p.ids) {
			ix.touched = append(ix.touched, p)
		}
		p.ids = append(p.ids, id)
	}
	ix.byValue.ids = append(ix.byValue.ids, id)
}

// DeferOrder starts a bulk load: until RestoreOrder, AddEntries appends to
// the postings without merging, RemoveTables does not compact, and the
// index must not be searched.
func (ix *Index) DeferOrder() { ix.deferred = true }

// RestoreOrder ends a bulk load: it sorts the ids added since DeferOrder
// into each posting they joined, once per posting, and compacts the index
// if its tombstones outnumber its live entries.
func (ix *Index) RestoreOrder() {
	ix.deferred = false
	ix.restoreOrder()
	ix.compactIfSparse()
}

// restoreOrder sorts each posting's tail and merges it into the posting's
// ordered head, the value posting first, comparing entries. Once the value
// posting, which holds every id, is in order, an id's position in it is
// its rank, so the keyword postings are ordered by rank: their tails
// sorted as integers and merged comparing integers, which costs a few
// times less than comparing entries.
func (ix *Index) restoreOrder() {
	v := &ix.byValue
	tail := append(ix.merge[:0], v.ids[v.head:]...)
	slices.SortFunc(tail, ix.rankOrder)
	insert(v.ids, v.head, tail, func(id, end int) int {
		at, _ := slices.BinarySearchFunc(v.ids[:end], id, ix.rankOrder)
		return at
	})
	v.head = len(v.ids)
	if len(ix.touched) > 0 {
		ix.rank = slices.Grow(ix.rank[:0], len(ix.entries))[:len(ix.entries)]
		rank := ix.rank
		for i, id := range v.ids {
			rank[id] = int32(i)
		}
		var ranks []int32
		for _, p := range ix.touched {
			ranks = ranks[:0]
			for _, id := range p.ids[p.head:] {
				ranks = append(ranks, rank[id])
			}
			slices.Sort(ranks)
			tail = tail[:0]
			for _, r := range ranks {
				tail = append(tail, v.ids[r])
			}
			insert(p.ids, p.head, tail, func(id, end int) int {
				r, lo, hi := rank[id], 0, end
				for lo < hi {
					if m := int(uint(lo+hi) >> 1); rank[p.ids[m]] < r {
						lo = m + 1
					} else {
						hi = m
					}
				}
				return lo
			})
			p.head = len(p.ids)
		}
		clear(ix.touched)
		ix.touched = ix.touched[:0]
	}
	ix.merge = tail
}

// insert merges sorted, ids in post's order, into post[:head], whose tail
// post[head:] holds the same ids out of order and is overwritten. From the
// back, each id finds its place among the head's ids that have not moved,
// place(id, end) of the first end, and the head's ids after it move up in
// one copy: a merge costs O(tail·log head) comparisons, and moves only the
// head's ids that order after the tail's first.
func insert(post []int, head int, sorted []int, place func(id, end int) int) {
	end := head
	for j := len(sorted) - 1; j >= 0; j-- {
		at := place(sorted[j], end)
		copy(post[at+j+1:], post[at:end])
		post[at+j] = sorted[j]
		end = at
	}
}

// rankOrder is the order of every posting: Search's rank order for hits
// that match the same number of keywords, value descending (NaN last), then
// table ID, row and column, and then id, which orders a tombstone and the
// live entry that replaced it.
func (ix *Index) rankOrder(a, b int) int {
	va, vb := ix.values[a], ix.values[b]
	switch {
	case va > vb:
		return -1
	case va < vb:
		return 1
	}
	if c := cmp.Compare(vb, va); c != 0 { // a NaN orders last
		return c
	}
	ea, eb := &ix.entries[a], &ix.entries[b]
	if c := strings.Compare(ea.TableID, eb.TableID); c != 0 {
		return c
	}
	if ea.Row != eb.Row {
		return cmp.Compare(ea.Row, eb.Row)
	}
	if ea.Col != eb.Col {
		return cmp.Compare(ea.Col, eb.Col)
	}
	return cmp.Compare(a, b)
}

// RemoveTables retracts every entry of the given table IDs and forgets the
// IDs, so a subsequent AddEntries for the same table indexes it afresh. It
// returns the number of entries retracted. Removal tombstones entries in
// place — see the Index doc comment for why that preserves result identity
// — and, outside a bulk load, compacts the index once tombstones outnumber
// live entries.
func (ix *Index) RemoveTables(tableIDs []string) int {
	removed := 0
	for _, t := range tableIDs {
		for _, id := range ix.byTable[t] {
			if !ix.dead[id] {
				ix.dead[id] = true
				ix.deadN++
				removed++
			}
		}
		delete(ix.byTable, t)
		delete(ix.seen, t)
	}
	if !ix.deferred {
		ix.compactIfSparse()
	}
	return removed
}

// compactIfSparse drops the tombstones once they outnumber the live
// entries: every id leaves its postings, and the live entries are renumbered
// in id order, which keeps every posting's order. Each pass is O(entries +
// postings) and needs the live entries to have halved since the last, so
// its cost is constant per retraction.
func (ix *Index) compactIfSparse() {
	if ix.deadN <= ix.Size() {
		return
	}
	renum := make([]int, len(ix.entries)) // old id → new id, -1 when dead
	entries := make([]Entry, 0, ix.Size())
	values := make([]float64, 0, ix.Size())
	for id := range ix.entries {
		if ix.dead[id] {
			renum[id] = -1
			continue
		}
		renum[id] = len(entries)
		entries = append(entries, ix.entries[id])
		values = append(values, ix.values[id])
	}
	ix.entries, ix.values = entries, values
	ix.dead = make([]bool, len(entries))
	ix.deadN = 0
	for w, p := range ix.byToken {
		if p.ids = renumber(p.ids, renum); len(p.ids) == 0 {
			delete(ix.byToken, w)
		}
		p.head = len(p.ids)
	}
	for t, post := range ix.byTable {
		ix.byTable[t] = renumber(post, renum)
	}
	ix.byValue.ids = renumber(ix.byValue.ids, renum)
	ix.byValue.head = len(ix.byValue.ids)
}

// renumber maps post's live ids through renum in place, dropping the dead.
func renumber(post, renum []int) []int {
	out := post[:0]
	for _, id := range post {
		if n := renum[id]; n >= 0 {
			out = append(out, n)
		}
	}
	return out
}

// BuildIndex indexes every numeric cell of the documents' tables. A table
// shared by several documents is indexed once. It is equivalent to NewIndex
// followed by Add for each document in order, as one bulk load.
func BuildIndex(docs []*document.Document) *Index {
	ix := NewIndex()
	ix.DeferOrder()
	for _, doc := range docs {
		ix.Add(doc)
	}
	ix.RestoreOrder()
	return ix
}

// CheckOrder returns an error naming the first posting out of rank order,
// or nil when every posting is in it, as SearchTop requires after every
// write.
func (ix *Index) CheckOrder() error {
	for w, p := range ix.byToken {
		if i := outOfOrder(p.ids, ix.rankOrder); i >= 0 {
			return fmt.Errorf("quantsearch: keyword %q posting out of order at %d of %d", w, i, len(p.ids))
		}
	}
	if i := outOfOrder(ix.byValue.ids, ix.rankOrder); i >= 0 {
		return fmt.Errorf("quantsearch: value posting out of order at %d of %d", i, len(ix.byValue.ids))
	}
	return nil
}

// outOfOrder returns the first index of post whose id does not order after
// the one before it, or -1.
func outOfOrder(post []int, order func(a, b int) int) int {
	for i := 1; i < len(post); i++ {
		if order(post[i-1], post[i]) >= 0 {
			return i
		}
	}
	return -1
}

// Size returns the number of live indexed entries.
func (ix *Index) Size() int { return len(ix.entries) - ix.deadN }

// Tombstones returns the number of removed entries the index still holds.
func (ix *Index) Tombstones() int { return ix.deadN }

// Comparison is the numeric predicate of a query.
type Comparison int

// Comparisons.
const (
	Above Comparison = iota
	Below
	Equals
	Between
)

// String names the comparison.
func (c Comparison) String() string {
	switch c {
	case Above:
		return "above"
	case Below:
		return "below"
	case Between:
		return "between"
	default:
		return "equals"
	}
}

// ParseComparison maps a comparison name (as produced by String) back to the
// comparison. It wraps ErrBadQuery on unknown names.
func ParseComparison(s string) (Comparison, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "above":
		return Above, nil
	case "below":
		return Below, nil
	case "between":
		return Between, nil
	case "equals", "":
		return Equals, nil
	}
	return Equals, fmt.Errorf("%w: unknown comparison %q", ErrBadQuery, s)
}

// Query is a parsed quantity query.
type Query struct {
	Keywords []string // lowercase content words that must match entry tokens
	Op       Comparison
	Value    float64
	Value2   float64 // upper bound for Between
	Unit     string  // canonical unit, "" = any
}

// ErrBadQuery reports a query that cannot be interpreted: no numeric value,
// a malformed comparison, or invalid parameters. It is the root of the
// query-validation error taxonomy (mapped to HTTP 422 bad_query).
var ErrBadQuery = fmt.Errorf("quantsearch: bad query")

// ErrNoValue reports a query without a numeric threshold. It wraps
// ErrBadQuery.
var ErrNoValue = fmt.Errorf("%w: query contains no numeric value", ErrBadQuery)

// comparatorCues map phrases to comparisons; multi-word cues are matched
// before single words.
var comparatorCues = []struct {
	phrase string
	op     Comparison
}{
	{"more than", Above}, {"greater than", Above}, {"at least", Above},
	{"less than", Below}, {"at most", Below}, {"up to", Below},
	{"above", Above}, {"over", Above}, {"exceeding", Above},
	{"below", Below}, {"under", Below},
	{"between", Between},
	{"exactly", Equals}, {"equal to", Equals}, {"equals", Equals}, {"of", Equals},
}

// ParseQuery parses a natural-ish quantity query such as
//
//	"annual income above 5 million USD"
//	"energy consumption below 100 MPGe"
//	"votes between 10000 and 50000"
//	"more than 3 % growth"
func ParseQuery(s string) (Query, error) {
	lower := asciiLower(s)
	q := Query{Op: Equals}

	opIdx := -1
	opLen := 0
	for _, cue := range comparatorCues {
		if i := strings.Index(lower, " "+cue.phrase+" "); i >= 0 {
			opIdx = i + 1
			opLen = len(cue.phrase)
			q.Op = cue.op
			break
		}
	}
	if opIdx < 0 {
		// No cue inside the query; one may lead it ("above 5 million USD").
		for _, cue := range comparatorCues {
			if strings.HasPrefix(lower, cue.phrase+" ") {
				opIdx = 0
				opLen = len(cue.phrase)
				q.Op = cue.op
				break
			}
		}
	}

	numericPart := s
	keywordPart := s
	if opIdx >= 0 {
		keywordPart = s[:opIdx]
		numericPart = s[opIdx+opLen:]
	}

	mentions := quantity.ExtractText(numericPart)
	leadingCue := opIdx == 0 && len(mentions) > 0
	if len(mentions) == 0 {
		// Comparator-free queries may still carry a trailing number.
		mentions = quantity.ExtractText(s)
		keywordPart = s
	}
	if len(mentions) == 0 {
		return Query{}, ErrNoValue
	}
	last := mentions[0]
	q.Value = mentions[0].Value
	q.Unit = mentions[0].Unit
	if q.Op == Between {
		if len(mentions) < 2 {
			return Query{}, fmt.Errorf("%w: 'between' needs two values", ErrBadQuery)
		}
		last = mentions[1]
		q.Value2 = mentions[1].Value
		if q.Value2 < q.Value {
			q.Value, q.Value2 = q.Value2, q.Value
		}
		if u := mentions[1].Unit; q.Unit == "" {
			q.Unit = u
		}
	}
	if leadingCue {
		// Nothing precedes a leading cue: the keywords are the words around
		// the values ("above 5 million USD annual income").
		keywordPart = numericPart[:mentions[0].Start] + " " + numericPart[last.End:]
	}

	for _, w := range nlp.ContentWords(keywordPart) {
		// Drop comparator words and bare numbers from the keyword set.
		if isComparatorWord(w) || (w[0] >= '0' && w[0] <= '9') {
			continue
		}
		// Drop only the query's own unit word ("USD" in "above 5 USD");
		// other unit-like words ("votes", "points") are content keywords.
		if u, isUnit := quantity.CanonicalUnit(w); isUnit && q.Unit != "" && u == q.Unit {
			continue
		}
		q.Keywords = append(q.Keywords, w)
	}
	return q, nil
}

// asciiLower lowercases ASCII letters only, so a byte offset into the result
// is the same offset into s. strings.ToLower can change the byte length —
// invalid UTF-8 becomes U+FFFD, and some letters lowercase to a different
// width — which would misplace the cue split. Every cue is ASCII.
func asciiLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}

func isComparatorWord(w string) bool {
	for _, cue := range comparatorCues {
		if cue.phrase == w {
			return true
		}
	}
	return w == "and"
}

// Result is a matched entry with its keyword score.
type Result struct {
	Entry
	Matched int `json:"matched"` // number of query keywords found in the entry's tokens
}

// Search returns entries satisfying the query's numeric predicate and unit,
// ranked by keyword matches (entries matching no keyword are excluded when
// the query has keywords). The ranking is deterministic and independent of
// insertion order: keyword matches descending, then value descending, then
// table ID, then row, then column. It returns nil when nothing matches. It
// is SearchTop with no bound.
func (ix *Index) Search(q Query) []Result {
	out, _ := ix.SearchTop(q, math.MaxInt)
	return out
}

// SearchTop returns the first n results of Search(q), or all of them when
// there are fewer, and a count: the number of results Search(q) returns
// when that is at most n, and a number above n otherwise. That is all a
// page needs to know whether another follows it. Live entries never tie in
// the rank order (a table ID names one live table, and its cells differ in
// row or column), so any n yields the full list's prefix.
//
// A query with one keyword, or none, walks that keyword's posting or the
// value posting, which are in rank order, from the first entry its value
// predicate admits, and stops after n+1 hits. A query with several ranks
// every hit through a bounded heap, so a page of a long list costs
// O(hits·log n), and counts them all.
func (ix *Index) SearchTop(q Query, n int) ([]Result, int) {
	if ix.deferred {
		panic("quantsearch: SearchTop during a bulk load")
	}
	n = max(n, 0)
	switch len(q.Keywords) {
	case 0:
		return ix.walk(q, ix.byValue.ids, n, 0)
	case 1:
		return ix.walk(q, ix.keyword(q.Keywords[0]), n, 1)
	}
	// Each posting lists an entry id at most once (add dedups tokens), so
	// counting an id's appearances across the keywords' postings counts its
	// matches — a keyword repeated in the query counts twice — and the
	// second pass offers each id on its first appearance and zeroes its
	// counter. admit applies the tombstones and the unit and value
	// predicates.
	matches := matchPool.Get().(*[]int32)
	if len(*matches) < len(ix.entries) {
		*matches = make([]int32, len(ix.entries))
	}
	m := *matches
	for _, kw := range q.Keywords {
		for _, id := range ix.keyword(kw) {
			m[id]++
		}
	}
	top := ranker{ix: ix, n: n}
	for _, kw := range q.Keywords {
		for _, id := range ix.keyword(kw) {
			if m[id] > 0 && ix.admit(q, id) {
				top.offer(hit{id, int(m[id])})
			}
			m[id] = 0
		}
	}
	matchPool.Put(matches)
	return top.results(), top.total
}

// keyword returns the ids of w's posting, none when no entry has the token.
func (ix *Index) keyword(w string) []int {
	if p := ix.byToken[w]; p != nil {
		return p.ids
	}
	return nil
}

// walk is SearchTop over post, a posting in rank order whose entries all
// match the query's keywords matched times: the first n hits it admits
// are the results, and the walk stops at the hit after them, which makes
// the count n+1. Binary searches skip the entries valued above the
// predicate's range and stop the walk below it; for Equals the range is
// conservative (a relative difference under 1e-9 implies |v−t| < 2e-9·|t|)
// and admit decides.
func (ix *Index) walk(q Query, post []int, n, matched int) ([]Result, int) {
	// Values descend along the posting, NaN last, so each cut below is
	// monotone: false up to some entry, true from it on.
	after := func(v float64) func(int) bool { // past the entries valued above v
		return func(i int) bool { return !(ix.values[post[i]] > v) }
	}
	below := func(v float64) func(int) bool { // past the entries valued at v or above
		return func(i int) bool { return !(ix.values[post[i]] >= v) }
	}
	start, end := 0, len(post)
	switch q.Op {
	case Above:
		end = sort.Search(len(post), after(q.Value))
	case Below:
		start = sort.Search(len(post), below(q.Value))
	case Between:
		start = sort.Search(len(post), after(q.Value2))
		end = sort.Search(len(post), below(q.Value))
	default: // Equals
		margin := 2e-9 * abs(q.Value)
		start = sort.Search(len(post), after(q.Value+margin))
		end = sort.Search(len(post), below(q.Value-margin))
	}
	var out []Result
	count := 0
	for _, id := range post[start:max(start, end)] {
		if !ix.admit(q, id) {
			continue
		}
		if count++; count > n {
			break
		}
		if out == nil {
			out = make([]Result, 0, min(n, end-start))
		}
		out = append(out, Result{Entry: ix.entries[id], Matched: matched})
	}
	return out, count
}

// matchPool holds the match counters of SearchTop's multi-keyword queries,
// one per entry id, all zero between queries.
var matchPool = sync.Pool{New: func() any { return new([]int32) }}

// hit is one ranked candidate of SearchTop: an entry id and its keyword
// matches.
type hit struct{ id, matched int }

// ranker keeps the n best hits offered to it and counts them all. Until it
// holds n it only appends; from then on its hits are a heap whose root is
// the worst kept hit, which a better one replaces.
type ranker struct {
	ix    *Index
	n     int
	hits  []hit
	total int
}

func (r *ranker) offer(h hit) {
	r.total++
	if len(r.hits) < r.n {
		r.hits = append(r.hits, h)
		if len(r.hits) == r.n {
			for i := r.n/2 - 1; i >= 0; i-- {
				r.down(i)
			}
		}
		return
	}
	if r.n > 0 && r.rank(h, r.hits[0]) < 0 {
		r.hits[0] = h
		r.down(0)
	}
}

// down sifts hits[i] toward the leaves until no child ranks after it.
func (r *ranker) down(i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(r.hits) && r.rank(r.hits[c], r.hits[worst]) > 0 {
				worst = c
			}
		}
		if worst == i {
			return
		}
		r.hits[i], r.hits[worst] = r.hits[worst], r.hits[i]
		i = worst
	}
}

// results sorts the kept hits into rank order and builds their Results; nil
// when it kept none.
func (r *ranker) results() []Result {
	if len(r.hits) == 0 {
		return nil
	}
	slices.SortFunc(r.hits, r.rank)
	out := make([]Result, len(r.hits))
	for i, h := range r.hits {
		out[i] = Result{Entry: r.ix.entries[h.id], Matched: h.matched}
	}
	return out
}

// rank orders hits as Search ranks them: negative when a ranks first.
func (r *ranker) rank(a, b hit) int {
	if a.matched != b.matched {
		return cmp.Compare(b.matched, a.matched)
	}
	return r.ix.rankOrder(a.id, b.id)
}

// admit reports whether entry id is live and passes the query's unit and
// value predicates.
func (ix *Index) admit(q Query, id int) bool {
	if ix.dead[id] {
		return false
	}
	e := &ix.entries[id]
	if q.Unit != "" && e.Unit != "" && !quantity.UnitsCompatible(q.Unit, e.Unit) {
		return false
	}
	return matchesValue(q, e.Value)
}

func matchesValue(q Query, v float64) bool {
	switch q.Op {
	case Above:
		return v > q.Value
	case Below:
		return v < q.Value
	case Between:
		return v >= q.Value && v <= q.Value2
	default: // Equals
		return quantity.RelativeDifference(v, q.Value) < 1e-9
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Units returns the units of the live entries ("" for unknown) and how
// many entries carry each — a cardinality view for diagnostics.
func (ix *Index) Units() map[string]int {
	out := make(map[string]int)
	for id := range ix.entries {
		if !ix.dead[id] {
			out[ix.entries[id].Unit]++
		}
	}
	return out
}
