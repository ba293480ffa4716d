package table

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"briq/internal/quantity"
)

// randomGrid builds a random numeric grid with a header row/column, the
// generator for the property tests below.
func randomGrid(rng *rand.Rand) [][]string {
	rows := 2 + rng.Intn(6)
	cols := 2 + rng.Intn(5)
	grid := make([][]string, 0, rows+1)
	header := make([]string, cols+1)
	header[0] = "name"
	for c := 1; c <= cols; c++ {
		header[c] = fmt.Sprintf("col%c", 'A'+c-1)
	}
	grid = append(grid, header)
	for r := 0; r < rows; r++ {
		row := make([]string, cols+1)
		row[0] = fmt.Sprintf("row %d", r)
		for c := 1; c <= cols; c++ {
			switch rng.Intn(6) {
			case 0:
				row[c] = "" // empty cell
			case 1:
				row[c] = "n/a"
			case 2:
				row[c] = fmt.Sprintf("%.1f%%", rng.Float64()*100)
			default:
				row[c] = fmt.Sprintf("%d", rng.Intn(5000)+1)
			}
		}
		grid = append(grid, row)
	}
	return grid
}

// TestPropertyMentionsInvariants: for random tables, generated mentions
// always satisfy the structural invariants: cell refs in bounds, virtual
// values consistent with their aggregation recomputed from the input cells,
// and the virtual count within the configured budget.
func TestPropertyMentionsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	opts := DefaultVirtualOptions()
	opts.MaxPerTable = 300

	for trial := 0; trial < 60; trial++ {
		tbl, err := New(fmt.Sprintf("t%d", trial), "random table", randomGrid(rng))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		mentions := tbl.Mentions(opts)
		virtual := 0
		for i, m := range mentions {
			if len(m.Cells) == 0 {
				t.Fatalf("trial %d: mention %d has no cells", trial, i)
			}
			vals := make([]float64, len(m.Cells))
			for j, ref := range m.Cells {
				if ref.Row < 0 || ref.Row >= tbl.Rows() || ref.Col < 0 || ref.Col >= tbl.Cols() {
					t.Fatalf("trial %d: cell ref out of bounds: %+v", trial, ref)
				}
				q := tbl.Cell(ref.Row, ref.Col).Quantity
				if q == nil {
					t.Fatalf("trial %d: mention %d references non-numeric cell", trial, i)
				}
				vals[j] = q.Value
			}
			if m.IsVirtual() {
				virtual++
				recomputed, ok := m.Agg.Apply(vals)
				if !ok {
					t.Fatalf("trial %d: %v inapplicable to its own inputs", trial, m.Agg)
				}
				want := recomputed
				switch m.Agg {
				case quantity.Percent:
					// stored as computed (already ×100 by Apply)
				case quantity.Ratio:
					want = recomputed * 100 // stored as percentage
				}
				if diff := m.Value - want; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("trial %d: %s value %v, recomputed %v", trial, m.Key(), m.Value, want)
				}
			}
		}
		if virtual > opts.MaxPerTable {
			t.Fatalf("trial %d: %d virtual mentions exceed budget %d", trial, virtual, opts.MaxPerTable)
		}
	}
}

// TestPropertyKeysUnique: mention keys are unique within a table for random
// inputs.
func TestPropertyKeysUnique(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	opts := DefaultVirtualOptions()
	for trial := 0; trial < 40; trial++ {
		tbl, err := New("t", "random", randomGrid(rng))
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, m := range tbl.Mentions(opts) {
			k := m.Key()
			if seen[k] {
				t.Fatalf("trial %d: duplicate key %s", trial, k)
			}
			seen[k] = true
		}
	}
}

// TestPropertyStatsMatchMentions: ComputeStats agrees with a direct count
// over Mentions for arbitrary budgets.
func TestPropertyStatsMatchMentions(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	check := func(budget uint8) bool {
		opts := DefaultVirtualOptions()
		opts.MaxPerTable = int(budget%100) + 1
		tbl, err := New("t", "random", randomGrid(rng))
		if err != nil {
			return false
		}
		stats := tbl.ComputeStats(opts)
		single, virtual := 0, 0
		for _, m := range tbl.Mentions(opts) {
			if m.IsVirtual() {
				virtual++
			} else {
				single++
			}
		}
		return stats.SingleCells == single && stats.VirtualCells == virtual &&
			stats.Rows == tbl.Rows() && stats.Cols == tbl.Cols()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
