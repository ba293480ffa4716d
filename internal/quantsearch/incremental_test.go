package quantsearch

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"briq/internal/corpus"
	"briq/internal/quantity"
)

// referenceSearch is the pre-postings full-scan implementation, kept as the
// semantic oracle for the posting-based Search.
func referenceSearch(ix *Index, q Query) []Result {
	counts := map[int]int{}
	if len(q.Keywords) == 0 {
		for i := range ix.entries {
			counts[i] = 0
		}
	} else {
		for _, kw := range q.Keywords {
			for _, id := range ix.keyword(kw) {
				counts[id]++
			}
		}
	}
	var out []Result
	for id, matched := range counts {
		if ix.dead[id] {
			continue
		}
		e := ix.entries[id]
		if q.Unit != "" && e.Unit != "" && !quantity.UnitsCompatible(q.Unit, e.Unit) {
			continue
		}
		if !matchesValue(q, e.Value) {
			continue
		}
		out = append(out, Result{Entry: e, Matched: matched})
	}
	sortResults(out)
	return out
}

func sortResults(out []Result) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			less := false
			switch {
			case a.Matched != b.Matched:
				less = a.Matched > b.Matched
			case a.Value != b.Value:
				less = a.Value > b.Value
			case a.TableID != b.TableID:
				less = a.TableID < b.TableID
			case a.Row != b.Row:
				less = a.Row < b.Row
			default:
				less = a.Col < b.Col
			}
			if less {
				break
			}
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
}

func queryBattery(ix *Index) []Query {
	qs := []Query{
		{Op: Above, Value: 0},
		{Op: Above, Value: 100},
		{Op: Below, Value: 50},
		{Op: Between, Value: 10, Value2: 1000},
		{Op: Above, Value: 5e6, Unit: "USD"},
		{Op: Below, Value: 100, Unit: "MPGe"},
		{Keywords: []string{"income"}, Op: Above, Value: 1},
		{Keywords: []string{"consumption", "energy"}, Op: Below, Value: 200},
		{Keywords: []string{"nonexistent"}, Op: Above, Value: 0},
	}
	// Equals queries on values actually present, plus one absent value.
	for i := 0; i < len(ix.entries) && i < 5; i++ {
		qs = append(qs, Query{Op: Equals, Value: ix.entries[i].Value})
	}
	qs = append(qs, Query{Op: Equals, Value: -12345.678}, Query{Op: Equals, Value: 0})
	return qs
}

// checkTop fails t unless SearchTop(q, n) is want's first n results with a
// count that is len(want) when that is at most n and above n otherwise.
func checkTop(t *testing.T, label string, ix *Index, q Query, n int, want []Result) {
	t.Helper()
	var prefix []Result // nil, as SearchTop returns when it keeps none
	if k := min(n, len(want)); k > 0 {
		prefix = want[:k]
	}
	top, count := ix.SearchTop(q, n)
	if !reflect.DeepEqual(top, prefix) || (len(want) <= n && count != len(want)) || (len(want) > n && count <= n) {
		t.Fatalf("%s: SearchTop(%+v, %d) = %d results, count %d; want the reference's first %d of %d",
			label, q, n, len(top), count, len(prefix), len(want))
	}
}

// TestSearchMatchesReferenceScan checks the posting-based candidate
// selection against the full-scan oracle over a generated corpus: built in
// bulk, after a retraction, after re-adding what was retracted one document
// at a time, and after a retraction large enough to compact the index. At
// every stage the top n of SearchTop, for n around a page and around the
// list's end, is the oracle's prefix of n, with a count that tells whether
// more follow.
func TestSearchMatchesReferenceScan(t *testing.T) {
	cfg := corpus.TableSConfig(7)
	cfg.Pages = 30
	c := corpus.Generate(cfg)
	ix := BuildIndex(c.Docs)
	if ix.Size() == 0 {
		t.Fatal("empty index")
	}
	check := func(stage string, q Query) {
		t.Helper()
		got := ix.Search(q)
		want := referenceSearch(ix, q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Search(%+v): %d results, reference %d results", stage, q, len(got), len(want))
		}
		for _, n := range []int{0, 1, 19, 20, 21, len(want) - 1, len(want), len(want) + 1, math.MaxInt} {
			if n >= 0 {
				checkTop(t, stage, ix, q, n, want)
			}
		}
	}
	// Keywords taken from the index itself, so multi-keyword queries have
	// entries matching one, several, or a repeated keyword.
	var words []string
	for w := range ix.byToken {
		words = append(words, w)
	}
	sort.Strings(words)
	rng := rand.New(rand.NewSource(42))
	battery := func() []Query {
		qs := queryBattery(ix)
		for i := 0; i < 20; i++ {
			kws := []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))]}
			if i%4 == 0 {
				kws = append(kws, kws[0]) // a repeated keyword counts twice
			}
			if i%5 == 0 {
				kws = append(kws, "nonexistent")
			}
			qs = append(qs, Query{Keywords: kws, Op: Comparison(rng.Intn(4)), Value: ix.entries[rng.Intn(len(ix.entries))].Value, Value2: 1e9})
		}
		// One keyword, whose posting SearchTop walks in rank order.
		for i := 0; i < 40; i++ {
			v := ix.entries[rng.Intn(len(ix.entries))].Value
			qs = append(qs, Query{Keywords: []string{words[rng.Intn(len(words))]}, Op: Comparison(rng.Intn(4)),
				Value: v, Value2: v * (1 + rng.Float64())})
		}
		// Randomized ranges.
		for i := 0; i < 50; i++ {
			a := ix.entries[rng.Intn(len(ix.entries))].Value * (0.5 + rng.Float64())
			b := a + rng.Float64()*1e4
			qs = append(qs, Query{Op: Comparison(rng.Intn(4)), Value: a, Value2: b})
		}
		return qs
	}
	for _, q := range battery() {
		check("sorted", q)
	}

	// Retract a third of the tables: the oracle skips tombstones.
	var tables []string
	for tid := range ix.byTable {
		tables = append(tables, tid)
	}
	sort.Strings(tables)
	var gone []string
	for i, tid := range tables {
		if i%3 == 0 {
			gone = append(gone, tid)
		}
	}
	if ix.RemoveTables(gone) == 0 {
		t.Fatal("RemoveTables retracted nothing")
	}
	for _, q := range battery() {
		check("after RemoveTables", q)
	}

	// Re-adding the retracted tables merges them into ordered postings.
	for _, doc := range c.Docs {
		ix.Add(doc)
	}
	for _, q := range battery() {
		check("re-added", q)
	}

	// Retracting two thirds of the tables leaves more tombstones than live
	// entries, which compacts the index.
	gone = gone[:0]
	for i, tid := range tables {
		if i%3 != 2 {
			gone = append(gone, tid)
		}
	}
	size := ix.Size()
	if ix.RemoveTables(gone) == 0 || ix.Tombstones() != 0 || ix.Size() >= size {
		t.Fatalf("retracting two thirds of %d entries left %d live and %d tombstones; want a compacted index",
			size, ix.Size(), ix.Tombstones())
	}
	for _, q := range battery() {
		check("compacted", q)
	}
}

// TestSearchTieBreakWideTable pins the last tie-break, row then column, on a
// table wider than 1,000 columns: cells (0, 1000) and (1, 0) share a value
// and every keyword match, and (0, 1000) must rank first on every search.
func TestSearchTieBreakWideTable(t *testing.T) {
	const rows, cols = 2, 1001
	var entries []Entry
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := float64(r*cols + c)
			if r == 0 && c == 1000 || r == 1 && c == 0 {
				v = 1e9
			}
			entries = append(entries, Entry{TableID: "wide", Row: r, Col: c, Value: v, Caption: "width test"})
		}
	}
	ix := NewIndex()
	ix.AddEntries(entries)
	for _, q := range []Query{
		{Keywords: []string{"width"}, Op: Above, Value: 0},
		{Op: Above, Value: 0},
	} {
		for i := 0; i < 200; i++ {
			got := ix.Search(q)
			if len(got) != rows*cols-1 {
				t.Fatalf("search %d of %+v: %d results, want %d", i, q, len(got), rows*cols-1)
			}
			if got[0].Row != 0 || got[0].Col != 1000 || got[1].Row != 1 || got[1].Col != 0 {
				t.Fatalf("search %d of %+v: top two are %+v, want cells (0, 1000) then (1, 0)", i, q, got[:2])
			}
		}
	}
}

// TestIncrementalEqualsRebuild verifies the tentpole invariant: adding
// documents one at a time yields an index equivalent to a from-scratch
// rebuild over the same documents, for every prefix.
func TestIncrementalEqualsRebuild(t *testing.T) {
	cfg := corpus.TableSConfig(11)
	cfg.Pages = 12
	c := corpus.Generate(cfg)

	inc := NewIndex()
	for n, doc := range c.Docs {
		inc.Add(doc)
		rebuilt := BuildIndex(c.Docs[:n+1])
		if inc.Size() != rebuilt.Size() {
			t.Fatalf("after %d docs: incremental size %d, rebuilt %d", n+1, inc.Size(), rebuilt.Size())
		}
		for _, q := range queryBattery(rebuilt) {
			gi := inc.Search(q)
			gr := rebuilt.Search(q)
			if !reflect.DeepEqual(gi, gr) {
				t.Fatalf("after %d docs, query %+v: incremental and rebuilt disagree (%d vs %d results)",
					n+1, q, len(gi), len(gr))
			}
		}
	}
}

// TestAddEntriesReplayEqualsAdd checks the store-replay path: feeding
// pre-derived entries reproduces Add exactly, including table dedup across
// calls.
func TestAddEntriesReplayEqualsAdd(t *testing.T) {
	cfg := corpus.TableSConfig(5)
	cfg.Pages = 10
	c := corpus.Generate(cfg)

	direct := NewIndex()
	replayed := NewIndex()
	for _, doc := range c.Docs {
		direct.Add(doc)
		replayed.AddEntries(EntriesFromDocument(doc))
	}
	if !reflect.DeepEqual(direct.entries, replayed.entries) {
		t.Fatal("AddEntries replay diverges from Add")
	}
	for _, q := range queryBattery(direct) {
		if !reflect.DeepEqual(direct.Search(q), replayed.Search(q)) {
			t.Fatalf("query %+v: replayed index disagrees", q)
		}
	}
}

func TestAddEntriesDedupAcrossCalls(t *testing.T) {
	e := Entry{DocID: "d0", TableID: "t0", Value: 5, Entity: "acme", Header: "income"}
	ix := NewIndex()
	if n := ix.AddEntries([]Entry{e, {DocID: "d0", TableID: "t0", Value: 7, Row: 1}}); n != 2 {
		t.Fatalf("first batch added %d, want 2 (same-call entries share the batch scope)", n)
	}
	if n := ix.AddEntries([]Entry{e}); n != 0 {
		t.Fatalf("duplicate table re-added (%d entries)", n)
	}
	if ix.Size() != 2 {
		t.Fatalf("size = %d, want 2", ix.Size())
	}
}

// TestWritesLeaveOrderRestored: every write returns with each keyword
// posting in rank order and the value posting in value order, which
// SearchTop relies on: AddEntries of one document, of several tables at
// once, and of a table already indexed; RemoveTables, with and without the
// compaction it starts; and a bulk load, whose RestoreOrder converges to
// what per-document merging built.
func TestWritesLeaveOrderRestored(t *testing.T) {
	cfg := corpus.TableSConfig(13)
	cfg.Pages = 10
	c := corpus.Generate(cfg)

	checkOrder := func(label string, ix *Index) {
		t.Helper()
		if err := ix.CheckOrder(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	merged := NewIndex()
	for _, doc := range c.Docs {
		merged.Add(doc)
		checkOrder("AddEntries", merged)
	}
	bulk := BuildIndex(c.Docs)
	checkOrder("bulk load", bulk)
	if !reflect.DeepEqual(merged.byToken, bulk.byToken) || !reflect.DeepEqual(merged.byValue, bulk.byValue) {
		t.Fatal("merging each document's ids and one bulk sort built different postings")
	}

	var tables []string
	for _, doc := range c.Docs {
		for _, e := range EntriesFromDocument(doc) {
			if !slices.Contains(tables, e.TableID) {
				tables = append(tables, e.TableID)
			}
		}
	}
	if merged.Add(c.Docs[0]) != 0 {
		t.Fatal("a document whose tables are indexed added entries")
	}
	checkOrder("AddEntries of indexed tables", merged)
	merged.RemoveTables(tables[:len(tables)/3])
	if merged.Tombstones() == 0 {
		t.Fatal("RemoveTables left no tombstones")
	}
	checkOrder("RemoveTables", merged)
	for _, doc := range c.Docs { // the retracted tables come back
		merged.Add(doc)
		checkOrder("AddEntries after RemoveTables", merged)
	}
	merged.RemoveTables(tables[len(tables)/3:])
	if merged.Tombstones() != 0 {
		t.Fatalf("retracting two thirds of the tables left %d tombstones; want them compacted", merged.Tombstones())
	}
	checkOrder("compaction", merged)
	for _, q := range queryBattery(bulk) {
		if got, want := merged.Search(q), referenceSearch(merged, q); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %+v: %d results after the writes, reference %d", q, len(got), len(want))
		}
	}
}

func TestBadQueryTaxonomy(t *testing.T) {
	if _, err := ParseQuery("income above average"); !errors.Is(err, ErrBadQuery) {
		t.Errorf("value-free query: err = %v, want ErrBadQuery", err)
	}
	if _, err := ParseQuery("income above average"); !errors.Is(err, ErrNoValue) {
		t.Errorf("value-free query: err should still be ErrNoValue")
	}
	if _, err := ParseQuery("votes between 100"); !errors.Is(err, ErrBadQuery) {
		t.Errorf("one-value between: want ErrBadQuery")
	}
	if _, err := ParseComparison("sideways"); !errors.Is(err, ErrBadQuery) {
		t.Errorf("unknown comparison: want ErrBadQuery")
	}
	for _, name := range []string{"above", "below", "between", "equals", ""} {
		op, err := ParseComparison(name)
		if err != nil {
			t.Errorf("ParseComparison(%q): %v", name, err)
		}
		if name != "" && op.String() != name {
			t.Errorf("ParseComparison(%q) round-trip = %q", name, op.String())
		}
	}
}

func TestUnitsView(t *testing.T) {
	ix := NewIndex()
	ix.AddEntries([]Entry{
		{TableID: "t0", Unit: "USD", Value: 1},
		{TableID: "t0", Unit: "USD", Value: 2},
		{TableID: "t0", Unit: "", Value: 3},
	})
	want := map[string]int{"USD": 2, "": 1}
	if got := ix.Units(); !reflect.DeepEqual(got, want) {
		t.Errorf("Units() = %v, want %v", got, want)
	}
}
