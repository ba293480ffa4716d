package table_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"briq/internal/corpus"
	"briq/internal/htmlx"
	"briq/internal/table"
)

// requireReferenceTable fails unless New and the reference builder agree on
// grid: the same error, or deep-equal tables.
func requireReferenceTable(t *testing.T, label, id, caption string, grid [][]string) {
	t.Helper()
	got, gotErr := table.New(id, caption, grid)
	want, wantErr := table.NewReference(id, caption, grid)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: table differs from the reference:\ngot  %+v\nwant %+v", label, got, want)
	}
}

// TestNewMatchesReferenceOnCorpora builds every table of the tableS and
// tableL corpora with New, which parses each grid cell once, and with the
// reference builder, which parses a data cell up to three times, and
// requires deep-equal tables.
func TestNewMatchesReferenceOnCorpora(t *testing.T) {
	configs := map[string]corpus.Config{
		"tableS seed 42": corpus.TableSConfig(42),
		"tableL seed 1":  corpus.TableLConfig(1, 500),
	}
	for name, cfg := range configs {
		tables := 0
		for _, pg := range corpus.Generate(cfg).Pages {
			for _, b := range pg.Blocks() {
				tb, ok := b.(*htmlx.TableBlock)
				if !ok {
					continue
				}
				label := fmt.Sprintf("%s page %s table %d", name, pg.ID, tables)
				requireReferenceTable(t, label, fmt.Sprintf("%s-t%d", pg.ID, tables), tb.Caption, tb.Grid)
				tables++
			}
		}
		if tables == 0 {
			t.Fatalf("%s: no tables", name)
		}
	}
}

// TestNewMatchesReferenceOnRandomGrids covers what generated tables never
// hold: padded cells, years, accounting negatives, scale words, empty and
// non-numeric cells in every position, and grids of one row or one column.
func TestNewMatchesReferenceOnRandomGrids(t *testing.T) {
	cells := []string{
		"12", " 3.5 ", "\t7\n", "2013", "2Q 2012", "1999.5", "n/a", "--", "", " ",
		"abc", "Total", "$4 million", "(9.49)", "$(1,200) Million", "45%", "60 bps",
		"1e21", "-0", "NaN", "YTD 2005", "3,262", "12K",
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(5)
		grid := make([][]string, rows)
		for r := range grid {
			grid[r] = make([]string, cols)
			for c := range grid[r] {
				grid[r][c] = cells[rng.Intn(len(cells))]
			}
		}
		requireReferenceTable(t, fmt.Sprintf("grid %d %q", i, grid), "t0", "caption in USD millions", grid)
	}
}
