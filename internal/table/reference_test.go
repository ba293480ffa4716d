package table

import (
	"fmt"
	"strings"

	"briq/internal/quantity"
)

// newReference is New as it was written before each grid cell was parsed
// once: header-row and header-column detection parse every cell they look
// at, and the data grid parses its cells again. It is the oracle for New,
// which must build deep-equal tables from every grid.
func newReference(id, caption string, grid [][]string) (*Table, error) {
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

	hasHeaderRow := refDetectHeaderRow(grid)
	hasHeaderCol := refDetectHeaderCol(grid, hasHeaderRow)

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

	for r := dataStartRow; r < len(grid); r++ {
		row := make([]Cell, 0, width-dataStartCol)
		for c := dataStartCol; c < width; c++ {
			cell := Cell{Row: r - dataStartRow, Col: c - dataStartCol, Text: strings.TrimSpace(grid[r][c])}
			if m, ok := quantity.ParseCell(cell.Text); ok {
				cell.Quantity = &m
			}
			row = append(row, cell)
		}
		t.cells = append(t.cells, row)
	}

	t.propagateUnits()
	return t, nil
}

func refDetectHeaderRow(grid [][]string) bool {
	if len(grid) < 2 {
		return false
	}
	first := refNumericFraction(grid[0])
	var rest float64
	for _, row := range grid[1:] {
		rest += refNumericFraction(row)
	}
	rest /= float64(len(grid) - 1)
	return first < 0.5 && rest > first
}

func refDetectHeaderCol(grid [][]string, skipFirstRow bool) bool {
	start := 0
	if skipFirstRow {
		start = 1
	}
	if len(grid)-start < 1 || len(grid[0]) < 2 {
		return false
	}
	var firstCol, restCols, nRest float64
	for _, row := range grid[start:] {
		if refIsDataNumeric(row[0]) {
			firstCol++
		}
		for _, cell := range row[1:] {
			if refIsDataNumeric(cell) {
				restCols++
			}
			nRest++
		}
	}
	nRows := float64(len(grid) - start)
	if nRest == 0 {
		return false
	}
	return firstCol/nRows < 0.5 && restCols/nRest > firstCol/nRows
}

func refNumericFraction(row []string) float64 {
	if len(row) == 0 {
		return 0
	}
	n := 0
	for _, s := range row {
		if refIsDataNumeric(s) {
			n++
		}
	}
	return float64(n) / float64(len(row))
}

func refIsDataNumeric(s string) bool {
	if _, ok := quantity.ParseCell(s); !ok {
		return false
	}
	return !containsYearToken(s)
}
