package quantsearch

// Fuzz harnesses for the query parsers behind GET /v1/search: q= goes
// through ParseQuery and op= through ParseComparison. The contract under
// arbitrary input: never panic, fail only with an error wrapping ErrBadQuery
// (the handler maps it to 422 bad_query), and on success return finite
// values with Value ≤ Value2 for a between query. Seed corpora are
// committed under testdata/fuzz.

import (
	"errors"
	"math"
	"testing"
)

func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		"annual income above 5 million USD",
		"energy consumption below 100 MPGe",
		"votes between 10000 and 50000",
		"revenue of 40",
		"income over 5",
		"above 5 million USD",
		"more than 3 %",
		"between 10000 and 50000 votes",
		"above 5 million USD annual income",
		"between 10000 and 50000 votes in ohio",
		"points between 90 and 20",
		"consumption above 90",
		"range above 300 km",
		"income above average",
		"votes between 100",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := ParseQuery(s)
		if err != nil {
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("ParseQuery(%q): error %v does not wrap ErrBadQuery", s, err)
			}
			return
		}
		for _, v := range []float64{q.Value, q.Value2} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseQuery(%q): non-finite value in %+v", s, q)
			}
		}
		if q.Op == Between && q.Value > q.Value2 {
			t.Fatalf("ParseQuery(%q): between bounds out of order: %+v", s, q)
		}
	})
}

func FuzzParseComparison(f *testing.F) {
	for _, seed := range []string{"above", "below", "between", "equals", "", "sideways", " Above ", "BETWEEN"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		op, err := ParseComparison(s)
		if err != nil {
			if !errors.Is(err, ErrBadQuery) {
				t.Fatalf("ParseComparison(%q): error %v does not wrap ErrBadQuery", s, err)
			}
			return
		}
		// Every accepted spelling names the comparison String prints.
		if back, err := ParseComparison(op.String()); err != nil || back != op {
			t.Fatalf("ParseComparison(%q) = %v, which does not round-trip: %v, %v", s, op, back, err)
		}
	})
}
