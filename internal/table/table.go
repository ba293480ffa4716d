// Package table implements the web-table model used throughout BriQ: a
// schema-free grid of cells with optional header row, header column, caption
// and footers; per-cell quantity extraction; and the generation of virtual
// cells — composite quantity mentions computed as aggregations of one or
// more table cells (§II-A of the paper).
package table

import (
	"fmt"
	"strings"

	"briq/internal/nlp"
	"briq/internal/quantity"
)

// Cell is a single table cell.
type Cell struct {
	Row, Col int               // position in the data grid (headers excluded)
	Text     string            // raw cell text
	Quantity *quantity.Mention // parsed quantity, nil for non-numeric cells
}

// Numeric reports whether the cell holds a quantity.
func (c *Cell) Numeric() bool { return c.Quantity != nil }

// Table is a schema-free web table. The data grid excludes the detected
// header row and header column; those are exposed separately so context
// features can use them.
type Table struct {
	ID         string   // identifier within the page (e.g. "t0")
	Caption    string   // table caption, may be empty
	ColHeaders []string // one per data column, may be empty strings
	RowHeaders []string // one per data row, may be empty strings
	Footers    []string // footer lines, if any
	cells      [][]Cell // row-major data grid
}

// New builds a Table from a raw grid of strings. It detects a header row
// (first row mostly non-numeric while the body is numeric) and a header
// column (same heuristic on the first column), parses cell quantities, and
// propagates units found in headers, footers and the caption into unitless
// numeric cells (§III).
func New(id, caption string, grid [][]string) (*Table, error) {
	if len(grid) == 0 || len(grid[0]) == 0 {
		return nil, fmt.Errorf("table %s: empty grid", id)
	}
	width := len(grid[0])
	for i, row := range grid {
		if len(row) != width {
			return nil, fmt.Errorf("table %s: row %d has %d cells, want %d", id, i, len(row), width)
		}
	}

	t := &Table{ID: id, Caption: caption}

	// Every grid cell is parsed once: header detection and the data grid
	// read the same parse. ParseCell trims its input itself, so the raw text
	// parses as the trimmed cell text does.
	parsed := make([]cellParse, len(grid)*width)
	for r, row := range grid {
		for c, s := range row {
			p := &parsed[r*width+c]
			p.q, p.ok = quantity.ParseCell(s)
			p.data = isDataNumeric(p.ok, s)
		}
	}
	hasHeaderRow := detectHeaderRow(parsed, width)
	hasHeaderCol := detectHeaderCol(parsed, width, hasHeaderRow)

	dataStartRow, dataStartCol := 0, 0
	if hasHeaderRow {
		dataStartRow = 1
	}
	if hasHeaderCol {
		dataStartCol = 1
	}
	if dataStartRow >= len(grid) || dataStartCol >= width {
		return nil, fmt.Errorf("table %s: no data cells after header detection", id)
	}

	if hasHeaderRow {
		for c := dataStartCol; c < width; c++ {
			t.ColHeaders = append(t.ColHeaders, strings.TrimSpace(grid[0][c]))
		}
	} else {
		t.ColHeaders = make([]string, width-dataStartCol)
	}
	if hasHeaderCol {
		for r := dataStartRow; r < len(grid); r++ {
			t.RowHeaders = append(t.RowHeaders, strings.TrimSpace(grid[r][0]))
		}
	} else {
		t.RowHeaders = make([]string, len(grid)-dataStartRow)
	}

	// The data grid's rows and its cells' quantities each share one backing
	// array.
	rows, cols := len(grid)-dataStartRow, width-dataStartCol
	cells := make([]Cell, 0, rows*cols)
	quantities := make([]quantity.Mention, rows*cols)
	for r := dataStartRow; r < len(grid); r++ {
		for c := dataStartCol; c < width; c++ {
			cell := Cell{Row: r - dataStartRow, Col: c - dataStartCol, Text: strings.TrimSpace(grid[r][c])}
			if p := &parsed[r*width+c]; p.ok {
				q := &quantities[len(cells)]
				*q = p.q
				cell.Quantity = q
			}
			cells = append(cells, cell)
		}
	}
	t.cells = make([][]Cell, rows)
	for r := range t.cells {
		t.cells[r] = cells[r*cols : (r+1)*cols : (r+1)*cols]
	}

	t.propagateUnits()
	return t, nil
}

// cellParse is one grid cell's parse, as New reads it.
type cellParse struct {
	q    quantity.Mention
	ok   bool // the cell parses as a quantity
	data bool // isDataNumeric
}

// detectHeaderRow reports whether the first row looks like a header: fewer
// numeric cells than the remaining rows' average. grid holds every cell's
// parse, row-major, width cells a row.
func detectHeaderRow(grid []cellParse, width int) bool {
	rows := len(grid) / width
	if rows < 2 {
		return false
	}
	first := numericFraction(grid[:width])
	var rest float64
	for r := 1; r < rows; r++ {
		rest += numericFraction(grid[r*width : (r+1)*width])
	}
	rest /= float64(rows - 1)
	return first < 0.5 && rest > first
}

// detectHeaderCol reports whether the first column looks like a header, by
// the same heuristic over the rows below a detected header row.
func detectHeaderCol(grid []cellParse, width int, skipFirstRow bool) bool {
	rows := len(grid) / width
	start := 0
	if skipFirstRow {
		start = 1
	}
	if rows-start < 1 || width < 2 {
		return false
	}
	var firstCol, restCols, nRest float64
	for r := start; r < rows; r++ {
		row := grid[r*width : (r+1)*width]
		if row[0].data {
			firstCol++
		}
		for _, cell := range row[1:] {
			if cell.data {
				restCols++
			}
			nRest++
		}
	}
	nRows := float64(rows - start)
	if nRest == 0 {
		return false
	}
	return firstCol/nRows < 0.5 && restCols/nRest > firstCol/nRows
}

func numericFraction(row []cellParse) float64 {
	if len(row) == 0 {
		return 0
	}
	n := 0
	for _, cell := range row {
		if cell.data {
			n++
		}
	}
	return float64(n) / float64(len(row))
}

// isDataNumeric reports whether a cell counts as a data quantity for header
// detection. Year-bearing cells ("2013", "2Q 2012", "YTD 2005", "October
// 2011") are headers in the overwhelming majority of web tables (Fig. 1c,
// Fig. 3, Fig. 5 of the paper all have year header rows), so they are
// treated as non-numeric here — this affects only header detection, not
// quantity extraction from data cells. isQuantity is whether s parses as a
// quantity.
func isDataNumeric(isQuantity bool, s string) bool {
	return isQuantity && !containsYearToken(s)
}

// containsYearToken reports whether s contains a standalone 4-digit run in
// [1900, 2100].
func containsYearToken(s string) bool {
	for i := 0; i < len(s); {
		if s[i] < '0' || s[i] > '9' {
			i++
			continue
		}
		j := i
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
		if j-i == 4 {
			v := int(s[i]-'0')*1000 + int(s[i+1]-'0')*100 + int(s[i+2]-'0')*10 + int(s[i+3]-'0')
			if v >= 1900 && v <= 2100 {
				// Reject decimals like "1999.5": must not be adjacent to '.'
				if (i == 0 || s[i-1] != '.') && (j >= len(s) || s[j] != '.') {
					return true
				}
			}
		}
		i = j
	}
	return false
}

// propagateUnits copies units found in column headers, row headers, footers
// or the caption into numeric cells that lack one. A unit mentioned in a
// column header ("($ Millions)", "Emission (g/km)") applies to the whole
// column; similarly for row headers. The caption applies table-wide. Scale
// words in headers ("in Mio", "($ Millions)") multiply the cell values.
func (t *Table) propagateUnits() {
	type hint struct {
		unit  string
		scale float64
	}
	parseHint := func(s string) hint {
		h := hint{scale: 1}
		// Compound units with slashes ("g/km") are split by the tokenizer;
		// match them on the raw string first.
		lowerAll := strings.ToLower(s)
		for _, compound := range []string{"g/km", "kwh"} {
			if strings.Contains(lowerAll, compound) {
				if u, ok := quantity.CanonicalUnit(compound); ok {
					h.unit = u
				}
				break
			}
		}
		for _, tok := range nlp.Tokenize(s) {
			lower := strings.ToLower(tok.Text)
			if u, ok := quantity.CanonicalUnit(lower); ok && h.unit == "" {
				h.unit = u
			}
			if f, ok := quantity.ScaleWord(lower); ok && h.scale == 1 {
				h.scale = f
			}
		}
		return h
	}

	global := parseHint(t.Caption + " " + strings.Join(t.Footers, " "))

	colHints := make([]hint, len(t.ColHeaders))
	for i, hdr := range t.ColHeaders {
		colHints[i] = parseHint(hdr)
	}
	rowHints := make([]hint, len(t.RowHeaders))
	for i, hdr := range t.RowHeaders {
		rowHints[i] = parseHint(hdr)
	}

	for r := range t.cells {
		for c := range t.cells[r] {
			q := t.cells[r][c].Quantity
			if q == nil {
				continue
			}
			// Unit priority: cell itself > column header > row header > caption.
			if q.Unit == "" {
				switch {
				case c < len(colHints) && colHints[c].unit != "":
					q.Unit = colHints[c].unit
				case r < len(rowHints) && rowHints[r].unit != "":
					q.Unit = rowHints[r].unit
				case global.unit != "":
					q.Unit = global.unit
				}
			}
			// Scale from headers applies only when the cell itself did not
			// already carry a scale word, and never to percentages.
			if q.Value == q.RawValue && q.Unit != "%" && q.Unit != "bps" {
				scale := 1.0
				switch {
				case c < len(colHints) && colHints[c].scale != 1:
					scale = colHints[c].scale
				case r < len(rowHints) && rowHints[r].scale != 1:
					scale = rowHints[r].scale
				case global.scale != 1:
					scale = global.scale
				}
				if scale != 1 {
					q.Value *= scale
					q.Scale = quantity.OrderOfMagnitude(q.Value)
				}
			}
		}
	}
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.cells) }

// Cols returns the number of data columns.
func (t *Table) Cols() int {
	if len(t.cells) == 0 {
		return 0
	}
	return len(t.cells[0])
}

// Cell returns the cell at (row, col) of the data grid.
func (t *Table) Cell(row, col int) *Cell { return &t.cells[row][col] }

// NumericCells returns pointers to all numeric cells in row-major order.
func (t *Table) NumericCells() []*Cell {
	var out []*Cell
	for r := range t.cells {
		for c := range t.cells[r] {
			if t.cells[r][c].Numeric() {
				out = append(out, &t.cells[r][c])
			}
		}
	}
	return out
}

// RowContext returns the textual context of a row: its header plus all cell
// texts, used by the feature extractor for local context (§IV-B: "for the
// table mention it is the full row and the full column content").
func (t *Table) RowContext(row int) string {
	var sb strings.Builder
	if row < len(t.RowHeaders) {
		sb.WriteString(t.RowHeaders[row])
	}
	for _, cell := range t.cells[row] {
		sb.WriteByte(' ')
		sb.WriteString(cell.Text)
	}
	return sb.String()
}

// ColContext returns the textual context of a column: its header plus all
// cell texts.
func (t *Table) ColContext(col int) string {
	var sb strings.Builder
	if col < len(t.ColHeaders) {
		sb.WriteString(t.ColHeaders[col])
	}
	for r := range t.cells {
		sb.WriteByte(' ')
		sb.WriteString(t.cells[r][col].Text)
	}
	return sb.String()
}

// Content returns the entire textual content of the table including caption,
// headers, cells and footers — the global context of table mentions and the
// token source for document segmentation.
func (t *Table) Content() string {
	var sb strings.Builder
	sb.WriteString(t.Caption)
	for _, h := range t.ColHeaders {
		sb.WriteByte(' ')
		sb.WriteString(h)
	}
	for r := range t.cells {
		sb.WriteByte('\n')
		if r < len(t.RowHeaders) {
			sb.WriteString(t.RowHeaders[r])
		}
		for _, cell := range t.cells[r] {
			sb.WriteByte(' ')
			sb.WriteString(cell.Text)
		}
	}
	for _, f := range t.Footers {
		sb.WriteByte('\n')
		sb.WriteString(f)
	}
	return sb.String()
}

// Tokens returns the lowercase content words of the whole table.
func (t *Table) Tokens() []string { return nlp.Words(t.Content()) }
