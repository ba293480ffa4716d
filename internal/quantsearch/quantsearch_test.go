package quantsearch

import (
	"reflect"
	"testing"

	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/table"
)

func buildIndex(t *testing.T) *Index {
	t.Helper()
	income, err := table.New("t-income", "annual income of internet companies ($ millions)", [][]string{
		{"company", "income", "revenue"},
		{"Acme Web", "7", "20"},
		{"Widget Net", "3", "9"},
		{"Search Co", "12", "40"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cars, err := table.New("t-cars", "electric cars energy consumption", [][]string{
		{"model", "consumption MPGe", "range km"},
		{"Volt", "95", "420"},
		{"Bolt", "115", "380"},
		{"Leaf", "105", "360"},
	})
	if err != nil {
		t.Fatal(err)
	}
	docs := []*document.Document{
		{ID: "d0", Tables: []*table.Table{income}},
		{ID: "d1", Tables: []*table.Table{cars}},
	}
	return BuildIndex(docs)
}

func TestParseQuery(t *testing.T) {
	tests := []struct {
		in       string
		op       Comparison
		value    float64
		unit     string
		keywords []string
	}{
		{"annual income above 5 million USD", Above, 5e6, "USD", []string{"annual", "income"}},
		{"energy consumption below 100 MPGe", Below, 100, "MPGe", []string{"energy", "consumption"}},
		{"votes between 10000 and 50000", Between, 10000, "", []string{"votes"}},
		{"revenue of 40", Equals, 40, "", []string{"revenue"}},
		{"income over 5", Above, 5, "", []string{"income"}},
		// A cue at the very start of the query: no keyword precedes it, so
		// any keywords follow the values.
		{"above 5 million USD", Above, 5e6, "USD", nil},
		{"more than 3 %", Above, 3, "%", nil},
		{"between 10000 and 50000 votes", Between, 10000, "votes", nil},
		{"above 5 million USD annual income", Above, 5e6, "USD", []string{"annual", "income"}},
		{"exceeding income 3.5", Above, 3.5, "", []string{"income"}},
	}
	for _, tc := range tests {
		q, err := ParseQuery(tc.in)
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", tc.in, err)
			continue
		}
		if q.Op != tc.op || q.Value != tc.value || q.Unit != tc.unit {
			t.Errorf("ParseQuery(%q) = op=%v v=%v unit=%q, want op=%v v=%v unit=%q",
				tc.in, q.Op, q.Value, q.Unit, tc.op, tc.value, tc.unit)
		}
		if !reflect.DeepEqual(q.Keywords, tc.keywords) {
			t.Errorf("ParseQuery(%q) keywords = %v, want %v", tc.in, q.Keywords, tc.keywords)
		}
	}
}

func TestParseQueryBetweenBounds(t *testing.T) {
	q, err := ParseQuery("points between 90 and 20")
	if err != nil {
		t.Fatal(err)
	}
	if q.Value != 20 || q.Value2 != 90 {
		t.Errorf("bounds = [%v, %v], want ordered [20, 90]", q.Value, q.Value2)
	}
}

func TestParseQueryLeadingBetween(t *testing.T) {
	q, err := ParseQuery("between 10000 and 50000 votes in ohio")
	if err != nil {
		t.Fatal(err)
	}
	if q.Op != Between || q.Value != 10000 || q.Value2 != 50000 {
		t.Errorf("got op=%v [%v, %v], want between [10000, 50000]", q.Op, q.Value, q.Value2)
	}
	if !reflect.DeepEqual(q.Keywords, []string{"ohio"}) {
		t.Errorf("keywords = %v, want [ohio]", q.Keywords)
	}
}

func TestParseQueryErrors(t *testing.T) {
	if _, err := ParseQuery("income above average"); err == nil {
		t.Error("want error for value-free query")
	}
	if _, err := ParseQuery("votes between 100"); err == nil {
		t.Error("want error for one-value between")
	}
}

func TestSearchPaperExampleIncome(t *testing.T) {
	// §XI: "Internet companies with annual income above 5 Mio. USD".
	ix := buildIndex(t)
	q, err := ParseQuery("income above 5 million USD")
	if err != nil {
		t.Fatal(err)
	}
	results := ix.Search(q)
	// Income cells are in $ millions (caption scale): Acme 7e6, Search 12e6
	// qualify; Widget 3e6 does not. Revenue cells also carry the "income"
	// caption token, so restrict the assertion to the income column.
	var incomes []float64
	for _, r := range results {
		if r.Header == "income" {
			incomes = append(incomes, r.Value)
		}
	}
	if !reflect.DeepEqual(incomes, []float64{12e6, 7e6}) {
		t.Errorf("income results = %v, want [1.2e7 7e6]", incomes)
	}
	for _, r := range results {
		if r.Header == "income" && r.Value == 3e6 {
			t.Error("3 million should not qualify as above 5 million")
		}
	}
}

func TestSearchPaperExampleCars(t *testing.T) {
	// §XI: "electric cars with energy consumption below 100 MPGe".
	ix := buildIndex(t)
	q, err := ParseQuery("energy consumption below 100 MPGe")
	if err != nil {
		t.Fatal(err)
	}
	results := ix.Search(q)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	top := results[0]
	if top.Entity != "Volt" || top.Value != 95 {
		t.Errorf("top result = %s %v, want Volt 95", top.Entity, top.Value)
	}
	for _, r := range results {
		if r.Unit == "MPGe" && r.Value >= 100 {
			t.Errorf("MPGe value %v should be below 100", r.Value)
		}
	}
}

func TestSearchKeywordFiltering(t *testing.T) {
	ix := buildIndex(t)
	q, err := ParseQuery("range above 300 km")
	if err != nil {
		t.Fatal(err)
	}
	results := ix.Search(q)
	if len(results) == 0 {
		t.Fatal("no range results")
	}
	for _, r := range results {
		if r.TableID != "t-cars" {
			t.Errorf("keyword 'range' matched the income table: %+v", r)
		}
	}
}

func TestSearchNoKeywords(t *testing.T) {
	ix := buildIndex(t)
	results := ix.Search(Query{Op: Above, Value: 400})
	found := false
	for _, r := range results {
		if r.Entity == "Volt" && r.Value == 420 {
			found = true
		}
	}
	if !found {
		t.Error("keyword-free search should scan all entries")
	}
}

func TestSearchDeterministicOrder(t *testing.T) {
	ix := buildIndex(t)
	q, _ := ParseQuery("consumption above 90")
	r1 := ix.Search(q)
	r2 := ix.Search(q)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("search order not deterministic")
	}
}

func TestBuildIndexOnGeneratedCorpus(t *testing.T) {
	cfg := corpus.TableSConfig(3)
	cfg.Pages = 20
	c := corpus.Generate(cfg)
	ix := BuildIndex(c.Docs)
	if ix.Size() == 0 {
		t.Fatal("empty index from generated corpus")
	}
	// Shared tables must be indexed once despite multiple documents.
	perTable := map[string]int{}
	for _, e := range ix.entries {
		perTable[e.TableID]++
	}
	for id, n := range perTable {
		if n > 200 {
			t.Errorf("table %s indexed %d times?", id, n)
		}
	}
}
