package quantsearch

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
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
			for _, id := range ix.byToken[kw] {
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

// TestSearchMatchesReferenceScan checks the posting-based candidate
// selection against the full-scan oracle over a generated corpus: with
// sorted value postings, after a retraction, and while the postings are
// dirty. At every stage the top n of SearchTop, for n around a page and
// around the list's end, is the oracle's prefix of n, with its length.
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
			if n < 0 {
				continue
			}
			var prefix []Result // nil, as SearchTop returns when it keeps nothing
			if k := min(n, len(want)); k > 0 {
				prefix = want[:k]
			}
			top, total := ix.SearchTop(q, n)
			if total != len(want) || !reflect.DeepEqual(top, prefix) {
				t.Errorf("%s: SearchTop(%+v, %d) = %d results of %d; want the reference's first %d of %d",
					stage, q, n, len(top), total, len(prefix), len(want))
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

	// Re-adding the retracted tables leaves the value postings dirty.
	for _, doc := range c.Docs {
		ix.Add(doc)
	}
	if !ix.valueDirty {
		t.Fatal("re-adding tables should leave the value postings dirty")
	}
	for _, q := range battery() {
		check("dirty", q)
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
	ix.EnsureValueOrder()
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

// TestLazyValueOrder pins the lazy value-posting maintenance: adds leave the
// postings dirty (O(1) append instead of an O(n) shift), Search answers
// identically whether the postings are dirty (scan fallback) or sorted
// (binary-searched range), and Search itself never sorts — EnsureValueOrder
// is the only mutation point, and it is idempotent.
func TestLazyValueOrder(t *testing.T) {
	cfg := corpus.TableSConfig(13)
	cfg.Pages = 10
	c := corpus.Generate(cfg)

	dirty := NewIndex()
	for _, doc := range c.Docs {
		dirty.Add(doc)
	}
	if !dirty.valueDirty {
		t.Fatal("adds should leave the value postings dirty")
	}
	sorted := BuildIndex(c.Docs) // BuildIndex ends with EnsureValueOrder
	if sorted.valueDirty {
		t.Fatal("BuildIndex should return sorted value postings")
	}

	for _, q := range queryBattery(sorted) {
		if !reflect.DeepEqual(dirty.Search(q), sorted.Search(q)) {
			t.Fatalf("query %+v: dirty scan and sorted range disagree", q)
		}
		if !dirty.valueDirty {
			t.Fatal("Search must not mutate the index")
		}
	}

	dirty.EnsureValueOrder()
	dirty.EnsureValueOrder() // idempotent
	for i := 1; i < len(dirty.byValue); i++ {
		a, b := dirty.byValue[i-1], dirty.byValue[i]
		if va, vb := dirty.entries[a].Value, dirty.entries[b].Value; va > vb || (va == vb && a > b) {
			t.Fatalf("byValue not in (Value, id) order at %d", i)
		}
	}
	if !reflect.DeepEqual(dirty.byValue, sorted.byValue) {
		t.Fatal("EnsureValueOrder should converge to the rebuilt order")
	}
	for _, q := range queryBattery(sorted) {
		if !reflect.DeepEqual(dirty.Search(q), sorted.Search(q)) {
			t.Fatalf("query %+v: post-sort results diverge", q)
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
