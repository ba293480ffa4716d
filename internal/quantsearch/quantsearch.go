// Package quantsearch implements the paper's concluding vision (§XI):
// quantity queries over web tables — "Internet companies with annual income
// above 5 Mio. USD, electric cars with energy consumption below 100 MPGe".
// Aligned documents are indexed into (entity, context, value, unit) entries;
// queries combine keywords with a numeric comparison and a unit.
//
// The index is incremental: documents are added one at a time (Add) as they
// are aligned, and the index state after any Add sequence is equivalent to
// rebuilding from scratch over the same documents (BuildIndex). Entries are
// kept in keyword postings plus unit and value-ordered postings so that
// keyword-free range queries do not scan the whole corpus.
package quantsearch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

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
// Removal (RemoveTables) tombstones entries in place: postings keep the dead
// ids and every query path skips them, so removing and re-adding a table
// yields results byte-identical to an index that never held the old version
// (the result ranking never depends on entry ids). Tombstones cost memory
// proportional to churn, not corpus size — acceptable for re-crawl workloads
// where a page's tables mostly survive re-ingestion.
type Index struct {
	entries []Entry
	byToken map[string][]int // lowercase token → entry ids, each once, ascending
	byUnit  map[string][]int // canonical unit ("" = unknown) → entry ids
	byTable map[string][]int // table ID → entry ids (the removal postings)
	byValue []int            // entry ids; ordered by (Value, id) unless valueDirty
	seen    map[string]bool  // table IDs already indexed (cross-document dedup)
	dead    []bool           // tombstones, parallel to entries
	deadN   int

	// valueDirty marks byValue as appended-to since its last sort. Adds are
	// O(1) and the (Value, id) order is restored lazily — EnsureValueOrder
	// re-sorts once per mutation burst instead of shifting postings on every
	// insert, which made replaying a large corpus quadratic.
	valueDirty bool
}

// NewIndex returns an empty index ready for incremental Add calls.
func NewIndex() *Index {
	return &Index{
		byToken: make(map[string][]int),
		byUnit:  make(map[string][]int),
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
// per table. It returns the number of entries added.
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
	return added
}

// add indexes e under each of its distinct content words.
func (ix *Index) add(e Entry, tokens []string) {
	id := len(ix.entries)
	ix.entries = append(ix.entries, e)
	ix.dead = append(ix.dead, false)
	ix.byTable[e.TableID] = append(ix.byTable[e.TableID], id)

	for _, w := range tokens {
		ix.byToken[w] = append(ix.byToken[w], id)
	}

	ix.byUnit[e.Unit] = append(ix.byUnit[e.Unit], id)

	// Appended out of order; EnsureValueOrder restores (Value, id) order
	// before the next binary-searched range query.
	ix.byValue = append(ix.byValue, id)
	ix.valueDirty = true
}

// EnsureValueOrder restores the (Value, id) order of the value postings after
// a burst of adds — a no-op when nothing changed. Search works without it
// (it falls back to a scan while the postings are dirty), so concurrent
// wrappers can call it under a write lock and keep Search read-only.
func (ix *Index) EnsureValueOrder() {
	if !ix.valueDirty {
		return
	}
	sort.Slice(ix.byValue, func(i, j int) bool {
		a, b := ix.byValue[i], ix.byValue[j]
		if ix.entries[a].Value != ix.entries[b].Value {
			return ix.entries[a].Value < ix.entries[b].Value
		}
		return a < b
	})
	ix.valueDirty = false
}

// RemoveTables retracts every entry of the given table IDs and forgets the
// IDs, so a subsequent AddEntries for the same table indexes it afresh. It
// returns the number of entries retracted. Removal tombstones entries in
// place — see the Index doc comment for why that preserves result identity.
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
	return removed
}

// BuildIndex indexes every numeric cell of the documents' tables. A table
// shared by several documents is indexed once. It is equivalent to NewIndex
// followed by Add for each document in order.
func BuildIndex(docs []*document.Document) *Index {
	ix := NewIndex()
	for _, doc := range docs {
		ix.Add(doc)
	}
	ix.EnsureValueOrder()
	return ix
}

// Size returns the number of live indexed entries.
func (ix *Index) Size() int { return len(ix.entries) - ix.deadN }

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
// there are fewer, and the number of results Search(q) returns. Only those n
// are ranked in full and built: the others are dropped from a bounded heap
// as better hits arrive, so a page of a long list costs O(hits·log n). Live
// entries never tie in the rank order (a table ID names one live table, and
// its cells differ in row or column), so any n yields the full list's
// prefix. It reads the value postings only for a query without keywords.
func (ix *Index) SearchTop(q Query, n int) ([]Result, int) {
	// Candidates are ranked as (id, matched) hits and become Results only
	// once, in rank order. Each keyword posting lists an entry id at most
	// once, in ascending order (add dedups tokens and ids only grow), so one
	// keyword's posting is its hit list and, for several, a run of equal ids
	// in the sorted concatenation counts that entry's matches — a keyword
	// repeated in the query counts twice. Without keywords the candidates are
	// the value-ordered postings restricted to the numeric range and the unit
	// buckets compatible with the query unit; while those postings are dirty
	// (adds since the last EnsureValueOrder) every entry is a candidate.
	// admit re-applies the exact unit and value predicates either way, so the
	// results are identical; SearchTop itself never mutates the index.
	top := ranker{ix: ix, n: max(n, 0)}
	switch {
	case len(q.Keywords) == 1:
		for _, id := range ix.byToken[q.Keywords[0]] {
			if ix.admit(q, id) {
				top.offer(hit{id, 1})
			}
		}
	case len(q.Keywords) > 1:
		var ids []int
		for _, kw := range q.Keywords {
			ids = append(ids, ix.byToken[kw]...)
		}
		slices.Sort(ids)
		for i, j := 0, 0; i < len(ids); i = j {
			for j = i + 1; j < len(ids) && ids[j] == ids[i]; j++ {
			}
			if ix.admit(q, ids[i]) {
				top.offer(hit{ids[i], j - i})
			}
		}
	case ix.valueDirty:
		for id := range ix.entries {
			if ix.admit(q, id) {
				top.offer(hit{id, 0})
			}
		}
	default:
		compat := ix.compatibleUnits(q.Unit)
		for _, id := range ix.valueRange(q) {
			if compat[ix.entries[id].Unit] && ix.admit(q, id) {
				top.offer(hit{id, 0})
			}
		}
	}
	return top.results(), top.total
}

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
	ea, eb := &r.ix.entries[a.id], &r.ix.entries[b.id]
	if ea.Value != eb.Value {
		if ea.Value > eb.Value {
			return -1
		}
		return 1
	}
	if c := strings.Compare(ea.TableID, eb.TableID); c != 0 {
		return c
	}
	if ea.Row != eb.Row {
		return cmp.Compare(ea.Row, eb.Row)
	}
	return cmp.Compare(ea.Col, eb.Col)
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

// compatibleUnits returns the set of indexed unit buckets an entry may carry
// and still pass the query's unit filter. The filter only depends on the
// entry's unit string, so checking once per bucket is equivalent to checking
// per entry.
func (ix *Index) compatibleUnits(qUnit string) map[string]bool {
	out := make(map[string]bool, len(ix.byUnit))
	for unit := range ix.byUnit {
		if qUnit == "" || unit == "" || quantity.UnitsCompatible(qUnit, unit) {
			out[unit] = true
		}
	}
	return out
}

// valueRange returns the ids (value-ordered) whose values can satisfy the
// query's numeric predicate. Bounds are conservative for Equals — the exact
// RelativeDifference predicate is re-applied by the caller.
func (ix *Index) valueRange(q Query) []int {
	n := len(ix.byValue)
	at := func(i int) float64 { return ix.entries[ix.byValue[i]].Value }
	switch q.Op {
	case Above:
		lo := sort.Search(n, func(i int) bool { return at(i) > q.Value })
		return ix.byValue[lo:]
	case Below:
		hi := sort.Search(n, func(i int) bool { return at(i) >= q.Value })
		return ix.byValue[:hi]
	case Between:
		lo := sort.Search(n, func(i int) bool { return at(i) >= q.Value })
		hi := sort.Search(n, func(i int) bool { return at(i) > q.Value2 })
		return ix.byValue[lo:hi]
	default: // Equals: reldiff < 1e-9 implies |v−t| < 2e-9·|t| (only 0 matches t=0).
		margin := 2e-9 * abs(q.Value)
		lo := sort.Search(n, func(i int) bool { return at(i) >= q.Value-margin })
		hi := sort.Search(n, func(i int) bool { return at(i) > q.Value+margin })
		return ix.byValue[lo:hi]
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Units returns the indexed unit buckets and their live posting sizes — a
// cheap cardinality view for metrics and diagnostics. Buckets whose entries
// are all retracted are omitted.
func (ix *Index) Units() map[string]int {
	out := make(map[string]int, len(ix.byUnit))
	for u, ids := range ix.byUnit {
		live := 0
		for _, id := range ids {
			if !ix.dead[id] {
				live++
			}
		}
		if live > 0 {
			out[u] = live
		}
	}
	return out
}
