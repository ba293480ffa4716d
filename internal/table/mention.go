package table

import (
	"strconv"
	"strings"

	"briq/internal/quantity"
)

// Orientation says whether an aggregate spans a row or a column.
type Orientation int

// Orientations of composite mentions. OrientNone is used for single cells.
const (
	OrientNone Orientation = iota
	OrientRow
	OrientCol
)

// String returns "row", "col" or "".
func (o Orientation) String() string {
	switch o {
	case OrientRow:
		return "row"
	case OrientCol:
		return "col"
	}
	return ""
}

// CellRef addresses a cell in a table's data grid.
type CellRef struct{ Row, Col int }

// Mention is a table quantity mention: either an explicit single-cell
// mention or a composite (virtual-cell) mention computed as an aggregation
// of two or more cells (§II-A).
type Mention struct {
	Table  *Table
	Agg    quantity.Agg // SingleCell for explicit cells
	Cells  []CellRef    // the input cells, in aggregation order
	Value  float64      // the (computed) quantity value
	Unit   string       // canonical unit, "" if unknown
	Orient Orientation  // row/column orientation for composites
}

// IsVirtual reports whether the mention is a composite (virtual cell).
func (m *Mention) IsVirtual() bool { return m.Agg != quantity.SingleCell }

// Key returns a stable identifier, e.g. "t0:cell(1,2)" or "t0:sum(col 3)".
func (m *Mention) Key() string { return string(m.AppendKey(nil)) }

// AppendKey appends Key's identifier to b and returns the extended slice. It
// is the one definition of the mention-key format: alignments' table keys go
// through it, and every stored alignment carries its bytes.
func (m *Mention) AppendKey(b []byte) []byte {
	b = append(b, m.Table.ID...)
	b = append(b, ':')
	if !m.IsVirtual() {
		b = append(b, "cell("...)
		return append(appendCellRef(b, m.Cells[0]), ')')
	}
	b = append(b, m.Agg.String()...)
	b = append(b, '(')
	if len(m.Cells) == 2 {
		b = append(appendCellRef(b, m.Cells[0]), '|')
		return append(appendCellRef(b, m.Cells[1]), ')')
	}
	fix := m.Cells[0].Col
	if m.Orient == OrientRow {
		fix = m.Cells[0].Row
	}
	b = append(b, m.Orient.String()...)
	b = append(b, ' ')
	return append(strconv.AppendInt(b, int64(fix), 10), ')')
}

// appendCellRef appends "row,col".
func appendCellRef(b []byte, ref CellRef) []byte {
	b = strconv.AppendInt(b, int64(ref.Row), 10)
	b = append(b, ',')
	return strconv.AppendInt(b, int64(ref.Col), 10)
}

// Surface returns a textual rendering of the mention value for string
// similarity features: the raw cell text for single cells, a formatted
// number for virtual cells.
func (m *Mention) Surface() string {
	if !m.IsVirtual() {
		return m.Table.Cell(m.Cells[0].Row, m.Cells[0].Col).Text
	}
	return quantity.FormatNormalized(m.Value, virtualPrecision(m.Value))
}

// virtualPrecision picks a display precision for computed values: two
// decimals for small magnitudes, none for large.
func virtualPrecision(v float64) int {
	if v < 0 {
		v = -v
	}
	if v != 0 && v < 1000 && v != float64(int64(v)) {
		return 2
	}
	return 0
}

// Precision returns the decimal precision of the mention's surface form.
func (m *Mention) Precision() int {
	if !m.IsVirtual() {
		if q := m.Table.Cell(m.Cells[0].Row, m.Cells[0].Col).Quantity; q != nil {
			return q.Precision
		}
		return 0
	}
	return virtualPrecision(m.Value)
}

// Scale returns the order of magnitude of the mention value.
func (m *Mention) Scale() int { return quantity.OrderOfMagnitude(m.Value) }

// Context returns the textual context of the mention: the union of the rows
// and columns its input cells lie in.
func (m *Mention) Context() string {
	var sb strings.Builder
	seenRow := map[int]bool{}
	seenCol := map[int]bool{}
	for _, ref := range m.Cells {
		if !seenRow[ref.Row] {
			seenRow[ref.Row] = true
			sb.WriteString(m.Table.RowContext(ref.Row))
			sb.WriteByte(' ')
		}
		if !seenCol[ref.Col] {
			seenCol[ref.Col] = true
			sb.WriteString(m.Table.ColContext(ref.Col))
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

// VirtualOptions controls virtual-cell generation. The zero value is not
// useful; call DefaultVirtualOptions.
type VirtualOptions struct {
	// Aggs enables generation per aggregation function. SingleCell is
	// implied and always generated.
	Aggs map[quantity.Agg]bool
	// MaxPerTable caps the number of virtual cells generated for one table,
	// keeping the quadratic pair space tractable (§II-A).
	MaxPerTable int
	// MaxPairsPerLine caps the ordered pairs considered per row/column for
	// diff/percent/ratio.
	MaxPairsPerLine int
	// PairSums additionally generates two-cell sums within a line — the
	// §II-A case "the total income of the last two years, which is the sum
	// of two cells rather than a row total". The paper supports these but
	// found the sophisticated cases too rare to affect quality; they are
	// off by default for the same run-time reason.
	PairSums bool
}

// DefaultVirtualOptions enables the four aggregations used in the paper's
// experiments (sum, difference, percentage, change ratio — those appearing
// in ≥5% of tables) plus sensible caps.
func DefaultVirtualOptions() VirtualOptions {
	return VirtualOptions{
		Aggs: map[quantity.Agg]bool{
			quantity.Sum:     true,
			quantity.Diff:    true,
			quantity.Percent: true,
			quantity.Ratio:   true,
		},
		MaxPerTable:     2000,
		MaxPairsPerLine: 200,
	}
}

// ExtendedVirtualOptions additionally enables average, min and max — the
// framework-supported aggregations the paper leaves to future work.
func ExtendedVirtualOptions() VirtualOptions {
	o := DefaultVirtualOptions()
	o.Aggs[quantity.Avg] = true
	o.Aggs[quantity.Min] = true
	o.Aggs[quantity.Max] = true
	return o
}

// Mentions generates all table quantity mentions: one single-cell mention
// per numeric cell, and virtual-cell mentions per VirtualOptions:
//
//   - sum/avg/min/max over every entire row and entire column with ≥2
//     numeric cells (O(r+c) candidates);
//   - diff/percent/ratio over ordered pairs of numeric cells in the same
//     row or same column (O(C(r,2)+C(c,2)) candidates).
//
// Degenerate composites are pruned: zero differences, percentages outside
// (0.01, 10000), ratios with |value| > 1000%, and aggregates whose inputs
// mix incompatible units.
func (t *Table) Mentions(opts VirtualOptions) []*Mention {
	var out []*Mention

	// Single cells.
	for _, cell := range t.NumericCells() {
		out = append(out, &Mention{
			Table: t,
			Agg:   quantity.SingleCell,
			Cells: []CellRef{{cell.Row, cell.Col}},
			Value: cell.Quantity.Value,
			Unit:  cell.Quantity.Unit,
		})
	}

	budget := opts.MaxPerTable
	if budget <= 0 {
		budget = 1 << 30
	}

	lineCells := func(orient Orientation, idx int) []*Cell {
		var cells []*Cell
		if orient == OrientRow {
			for c := 0; c < t.Cols(); c++ {
				if cell := t.Cell(idx, c); cell.Numeric() {
					cells = append(cells, cell)
				}
			}
		} else {
			for r := 0; r < t.Rows(); r++ {
				if cell := t.Cell(r, idx); cell.Numeric() {
					cells = append(cells, cell)
				}
			}
		}
		return cells
	}

	lines := make([]struct {
		orient Orientation
		cells  []*Cell
	}, 0, t.Rows()+t.Cols())
	for r := 0; r < t.Rows(); r++ {
		lines = append(lines, struct {
			orient Orientation
			cells  []*Cell
		}{OrientRow, lineCells(OrientRow, r)})
	}
	for c := 0; c < t.Cols(); c++ {
		lines = append(lines, struct {
			orient Orientation
			cells  []*Cell
		}{OrientCol, lineCells(OrientCol, c)})
	}

	virtualCount := 0
	addVirtual := func(m *Mention) bool {
		if virtualCount >= budget {
			return false
		}
		virtualCount++
		out = append(out, m)
		return true
	}

	// Whole-line aggregates.
	for _, agg := range []quantity.Agg{quantity.Sum, quantity.Avg, quantity.Min, quantity.Max} {
		if !opts.Aggs[agg] {
			continue
		}
		for _, line := range lines {
			if len(line.cells) < 2 {
				continue
			}
			unit, unitOK := commonUnit(line.cells)
			if !unitOK {
				continue
			}
			vals := make([]float64, len(line.cells))
			refs := make([]CellRef, len(line.cells))
			for i, cell := range line.cells {
				vals[i] = cell.Quantity.Value
				refs[i] = CellRef{cell.Row, cell.Col}
			}
			v, ok := agg.Apply(vals)
			if !ok {
				continue
			}
			if !addVirtual(&Mention{Table: t, Agg: agg, Cells: refs, Value: v, Unit: unit, Orient: line.orient}) {
				return out
			}
		}
	}

	// Same-line ordered pairs for diff/percent/ratio.
	pairAggs := make([]quantity.Agg, 0, 3)
	for _, agg := range []quantity.Agg{quantity.Diff, quantity.Percent, quantity.Ratio} {
		if opts.Aggs[agg] {
			pairAggs = append(pairAggs, agg)
		}
	}
	if len(pairAggs) == 0 {
		return out
	}
	maxPairs := opts.MaxPairsPerLine
	if maxPairs <= 0 {
		maxPairs = 1 << 30
	}
	for _, line := range lines {
		pairs := 0
		for i := 0; i < len(line.cells) && pairs < maxPairs; i++ {
			for j := 0; j < len(line.cells) && pairs < maxPairs; j++ {
				if i == j {
					continue
				}
				a, b := line.cells[i], line.cells[j]
				if !quantity.UnitsCompatible(a.Quantity.Unit, b.Quantity.Unit) {
					continue
				}
				av, bv := a.Quantity.Value, b.Quantity.Value
				// A zero operand degenerates every pair aggregate into a
				// copy of the other cell (diff(a,0)=a, ratio(a,0)=100%);
				// such virtual cells only shadow single-cell mentions.
				if av == 0 || bv == 0 {
					continue
				}
				pairs++
				refs := []CellRef{{a.Row, a.Col}, {b.Row, b.Col}}
				// Lines with exactly two numeric cells already get a
				// whole-line sum over the same pair; skip the duplicate.
				if opts.PairSums && i < j && len(line.cells) > 2 {
					if v, ok := quantity.Sum.Apply([]float64{av, bv}); ok {
						if unit, unitOK := commonUnit([]*Cell{a, b}); unitOK {
							if !addVirtual(&Mention{Table: t, Agg: quantity.Sum, Cells: refs, Value: v, Unit: unit, Orient: line.orient}) {
								return out
							}
						}
					}
				}
				for _, agg := range pairAggs {
					v, ok := agg.Apply([]float64{av, bv})
					if !ok {
						continue
					}
					m := &Mention{Table: t, Agg: agg, Cells: refs, Value: v, Orient: line.orient}
					switch agg {
					case quantity.Diff:
						// Text mentions of differences are magnitudes ("fell
						// $16.3 million", "2K EUR cheaper"), so each unordered
						// pair contributes exactly one positive diff mention.
						if v <= 0 {
							continue
						}
						m.Unit = pairUnit(a, b)
					case quantity.Percent:
						if v <= 0.01 || v >= 10000 {
							continue
						}
						m.Value = v
						m.Unit = "%"
					case quantity.Ratio:
						// Express the change ratio as a percentage so it is
						// directly comparable with "%"-unit text mentions
						// ("increased by 1.5%" ↔ ratio(890,876)).
						pctV := v * 100
						if pctV <= -1000 || pctV >= 1000 || pctV == 0 {
							continue
						}
						m.Value = pctV
						m.Unit = "%"
					}
					if !addVirtual(m) {
						return out
					}
				}
			}
		}
	}
	return out
}

// commonUnit returns the unit shared by all cells. Cells without a unit are
// compatible with anything. Reports ok=false when two distinct explicit
// units appear.
func commonUnit(cells []*Cell) (string, bool) {
	unit := ""
	for _, c := range cells {
		u := c.Quantity.Unit
		if u == "" {
			continue
		}
		if unit == "" {
			unit = u
			continue
		}
		if !quantity.UnitsCompatible(unit, u) {
			return "", false
		}
	}
	return unit, true
}

// pairUnit returns the unit for a two-cell aggregate.
func pairUnit(a, b *Cell) string {
	if a.Quantity.Unit != "" {
		return a.Quantity.Unit
	}
	return b.Quantity.Unit
}

// Stats summarizes a table for the corpus statistics of Table IX.
type Stats struct {
	Rows, Cols   int
	SingleCells  int // numeric cells
	VirtualCells int // composite mentions under the given options
}

// ComputeStats returns the table's statistics under the given virtual-cell
// options.
func (t *Table) ComputeStats(opts VirtualOptions) Stats {
	s := Stats{Rows: t.Rows(), Cols: t.Cols()}
	for _, m := range t.Mentions(opts) {
		if m.IsVirtual() {
			s.VirtualCells++
		} else {
			s.SingleCells++
		}
	}
	return s
}
