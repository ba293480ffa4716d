package quantsearch

// Fuzz harnesses for the query parsers behind GET /v1/search: q= goes
// through ParseQuery and op= through ParseComparison. The contract under
// arbitrary input: never panic, fail only with an error wrapping ErrBadQuery
// (the handler maps it to 422 bad_query), and on success return finite
// values with Value ≤ Value2 for a between query. Seed corpora are
// committed under testdata/fuzz.

import (
	"errors"
	"fmt"
	"math"
	"slices"
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

// FuzzSearchTop: for any index and query, SearchTop(q, n) is the first n
// results of the reference full sort, with a count that is the full list's
// length when that is at most n and above n otherwise. The index is built
// from data, four bytes per entry (table, row and column, value and unit,
// keywords), one table per AddEntries call, or in one bulk load; the low
// byte of tables retracts tables and its high byte re-adds them with their
// values shifted, so live entries sit beside tombstones of the same cells
// and the index may compact. The query takes every comparison, units and
// zero to three keywords, possibly repeated or absent from the index.
func FuzzSearchTop(f *testing.F) {
	f.Add([]byte("\x00\x00\x01\x05\x00\x01\x02\x06\x01\x10\x03\x07\x01\x11\x04\x1f"), uint16(0x0101), false, uint8(0), 1.0, 0.0, uint8(0), uint8(0x05))
	f.Add([]byte("\x00\x00\x01\x05\x00\x01\x01\x06\x02\x10\x11\x09\x03\x22\x33\x0c"), uint16(0x0606), true, uint8(3), 0.5, 100.0, uint8(1), uint8(0x16))
	f.Add([]byte("\x00\x00\x07\x00\x00\x01\x07\x00\x00\x02\x07\x00\x01\x00\x07\x00"), uint16(0x0003), false, uint8(2), 42.0, 0.0, uint8(2), uint8(0x00))
	f.Add([]byte("\x05\x33\x28\x2a\x04\x32\x18\x15\x03\x31\x08\x3f"), uint16(0xff3f), true, uint8(1), 1e6, 0.0, uint8(3), uint8(0x3b))
	f.Fuzz(func(t *testing.T, data []byte, tables uint16, bulk bool, op uint8, value, value2 float64, unit uint8, keywords uint8) {
		if math.IsNaN(value) || math.IsInf(value, 0) || math.IsNaN(value2) || math.IsInf(value2, 0) {
			return // the search routes refuse them
		}
		values := []float64{0, math.Copysign(0, -1), 1, 1, 2.5, -3, 42, 100, 1e6, 1e-7, -1e6, math.Inf(1), math.NaN(), 0.5, 7, 42}
		units := []string{"", "USD", "EUR", "%", "bps"}
		words := []string{"", "alpha", "beta", "gamma"}
		cells := map[string]map[[2]int]bool{}
		var order []string // table IDs, first seen first
		byTable := map[string][]Entry{}
		for ; len(data) >= 4; data = data[4:] {
			tid := fmt.Sprintf("t%d", data[0]%8)
			cell := [2]int{int(data[1] >> 4 & 3), int(data[1] & 3)}
			if cells[tid] == nil {
				cells[tid] = map[[2]int]bool{}
				order = append(order, tid)
			}
			if cells[tid][cell] {
				continue // a table names each cell once
			}
			cells[tid][cell] = true
			byTable[tid] = append(byTable[tid], Entry{TableID: tid, Row: cell[0], Col: cell[1],
				Value: values[data[2]%16], Unit: units[int(data[2]>>4)%len(units)],
				Entity: words[data[3]&3], Header: words[data[3]>>2&3], Caption: words[data[3]>>4&3]})
		}
		ix := NewIndex()
		if bulk {
			ix.DeferOrder()
		}
		for _, tid := range order {
			ix.AddEntries(byTable[tid])
		}
		if bulk {
			ix.RestoreOrder()
		}
		var retracted []string
		for i, tid := range order {
			if tables>>(i%8)&1 == 1 {
				retracted = append(retracted, tid)
			}
		}
		ix.RemoveTables(retracted)
		for i, tid := range order {
			if tables>>(8+i%8)&1 == 1 {
				shifted := slices.Clone(byTable[tid])
				for j := range shifted {
					shifted[j].Value = values[(slices.Index(values, shifted[j].Value)+3)%16]
				}
				ix.AddEntries(shifted) // a no-op for a table still live
			}
		}
		if err := ix.CheckOrder(); err != nil {
			t.Fatal(err)
		}

		q := Query{Op: Comparison(op % 4), Value: value, Value2: value2, Unit: units[int(unit)%len(units)]}
		for i := 0; i < int(keywords&3); i++ {
			q.Keywords = append(q.Keywords, []string{"alpha", "beta", "gamma", "delta"}[keywords>>(2+2*i)&3])
		}
		want := referenceSearch(ix, q)
		for _, n := range []int{0, 1, 20, math.MaxInt} {
			checkTop(t, "fuzzed", ix, q, n, want)
		}
	})
}
