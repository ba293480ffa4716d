package table

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"briq/internal/quantity"
)

// fig1aGrid is the health table of Fig. 1a.
func fig1aGrid() [][]string {
	return [][]string{
		{"side effects", "male", "female", "total"},
		{"Rash", "15", "20", "35"},
		{"Depression", "13", "25", "38"},
		{"Hypertension", "19", "15", "34"},
		{"Nausea", "5", "6", "11"},
		{"Eye Disorders", "2", "3", "5"},
	}
}

// fig1cGrid is the finance table of Fig. 1c.
func fig1cGrid() [][]string {
	return [][]string{
		{"Income gains (in Mio)", "2013", "2012", "2011"},
		{"Total Revenue", "3,263", "3,193", "2,911"},
		{"Gross income", "1,069", "1,053", "877"},
		{"Income taxes", "179", "177", "160"},
		{"Income", "890", "876", "849"},
	}
}

func mustNew(t *testing.T, id, caption string, grid [][]string) *Table {
	t.Helper()
	tbl, err := New(id, caption, grid)
	if err != nil {
		t.Fatalf("New(%s): %v", id, err)
	}
	return tbl
}

func TestNewDetectsHeaders(t *testing.T) {
	tbl := mustNew(t, "t0", "", fig1aGrid())
	if got, want := tbl.Rows(), 5; got != want {
		t.Errorf("Rows = %d, want %d", got, want)
	}
	if got, want := tbl.Cols(), 3; got != want {
		t.Errorf("Cols = %d, want %d", got, want)
	}
	if tbl.ColHeaders[0] != "male" || tbl.ColHeaders[2] != "total" {
		t.Errorf("ColHeaders = %v", tbl.ColHeaders)
	}
	if tbl.RowHeaders[1] != "Depression" {
		t.Errorf("RowHeaders = %v", tbl.RowHeaders)
	}
	if v := tbl.Cell(1, 1).Quantity.Value; v != 25 {
		t.Errorf("cell(1,1) = %v, want 25 (Depression female)", v)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New("t", "", nil); err == nil {
		t.Error("want error for empty grid")
	}
	if _, err := New("t", "", [][]string{{}}); err == nil {
		t.Error("want error for empty row")
	}
	if _, err := New("t", "", [][]string{{"a", "b"}, {"1"}}); err == nil {
		t.Error("want error for ragged grid")
	}
}

func TestNoHeaderTable(t *testing.T) {
	tbl := mustNew(t, "t", "", [][]string{
		{"1", "2"},
		{"3", "4"},
	})
	if tbl.Rows() != 2 || tbl.Cols() != 2 {
		t.Errorf("dims = %dx%d, want 2x2", tbl.Rows(), tbl.Cols())
	}
	if tbl.Cell(0, 0).Quantity.Value != 1 {
		t.Error("cell (0,0) should be 1")
	}
}

func TestUnitPropagationFromRowHeader(t *testing.T) {
	// Fig. 1b rotated table: units in row headers.
	tbl := mustNew(t, "t", "", [][]string{
		{"spec", "Focus E", "A3", "VW Golf"},
		{"German MSRP", "34900", "36900", "33800"},
		{"Emission (g/km)", "0", "105", "122"},
		{"Final rating", "1.33", "2.67", "2.67"},
	})
	if u := tbl.Cell(1, 1).Quantity.Unit; u != "g/km" {
		t.Errorf("emission unit = %q, want g/km", u)
	}
}

func TestUnitAndScaleFromCaption(t *testing.T) {
	// Fig. 3: caption "($ Millions)" gives unit USD and scale 1e6.
	tbl := mustNew(t, "t", "Table 1: Transportation Systems ($ Millions)", [][]string{
		{"metric", "2Q 2012", "2Q 2013"},
		{"Sales", "900", "947"},
		{"Segment Profit", "114", "126"},
	})
	q := tbl.Cell(0, 0).Quantity
	if q.Unit != "USD" {
		t.Errorf("unit = %q, want USD", q.Unit)
	}
	if q.Value != 900e6 {
		t.Errorf("value = %v, want 9e8", q.Value)
	}
}

func TestScaleNotAppliedToPercent(t *testing.T) {
	tbl := mustNew(t, "t", "figures in millions", [][]string{
		{"metric", "value", "% Change"},
		{"Sales", "900", "5%"},
	})
	if v := tbl.Cell(0, 1).Quantity.Value; v != 5 {
		t.Errorf("percent cell scaled: %v, want 5", v)
	}
	if v := tbl.Cell(0, 0).Quantity.Value; v != 900e6 {
		t.Errorf("plain cell not scaled: %v, want 9e8", v)
	}
}

func TestFig1cScaleInMio(t *testing.T) {
	tbl := mustNew(t, "t", "", fig1cGrid())
	// Caption column header contains "(in Mio)" — in this grid it is the
	// corner header; corner text is part of neither column nor row headers,
	// so values stay unscaled. Revenue 2013:
	if v := tbl.Cell(0, 0).Quantity.Value; v != 3263 {
		t.Errorf("revenue 2013 = %v, want 3263", v)
	}
}

func TestRowColContext(t *testing.T) {
	tbl := mustNew(t, "t", "", fig1aGrid())
	rc := tbl.RowContext(1)
	if !strings.Contains(rc, "Depression") || !strings.Contains(rc, "38") {
		t.Errorf("RowContext(1) = %q", rc)
	}
	cc := tbl.ColContext(2)
	if !strings.Contains(cc, "total") || !strings.Contains(cc, "35") {
		t.Errorf("ColContext(2) = %q", cc)
	}
}

func TestContentAndTokens(t *testing.T) {
	tbl := mustNew(t, "t", "Drug trial side effects", fig1aGrid())
	content := tbl.Content()
	for _, want := range []string{"Drug trial", "Depression", "male", "38"} {
		if !strings.Contains(content, want) {
			t.Errorf("Content() missing %q", want)
		}
	}
	toks := tbl.Tokens()
	if len(toks) == 0 {
		t.Fatal("no tokens")
	}
}

func TestNumericCells(t *testing.T) {
	tbl := mustNew(t, "t", "", fig1aGrid())
	if got, want := len(tbl.NumericCells()), 15; got != want {
		t.Errorf("NumericCells = %d, want %d", got, want)
	}
}

func TestMentionsSingleCells(t *testing.T) {
	tbl := mustNew(t, "t", "", fig1aGrid())
	ms := tbl.Mentions(VirtualOptions{})
	if len(ms) != 15 {
		t.Fatalf("want 15 single-cell mentions with no virtual aggs, got %d", len(ms))
	}
	for i, m := range ms {
		if m.IsVirtual() {
			t.Errorf("mention %d should not be virtual", i)
		}
	}
}

func TestMentionsColumnSum(t *testing.T) {
	tbl := mustNew(t, "t", "", fig1aGrid())
	ms := tbl.Mentions(DefaultVirtualOptions())

	// Fig. 1a: "total of 123 patients" = sum of the total column
	// 35+38+34+11+5 = 123.
	var found *Mention
	for _, m := range ms {
		if m.Agg == quantity.Sum && m.Orient == OrientCol && m.Value == 123 {
			found = m
			break
		}
	}
	if found == nil {
		t.Fatal("column sum 123 not generated")
	}
	if len(found.Cells) != 5 {
		t.Errorf("sum inputs = %d cells, want 5", len(found.Cells))
	}
	// Column sums for male (54) and female (69) must exist too.
	wantSums := map[float64]bool{54: false, 69: false}
	for _, m := range ms {
		if m.Agg == quantity.Sum && m.Orient == OrientCol {
			if _, ok := wantSums[m.Value]; ok {
				wantSums[m.Value] = true
			}
		}
	}
	for v, ok := range wantSums {
		if !ok {
			t.Errorf("column sum %v not generated", v)
		}
	}
}

func TestMentionsRatio(t *testing.T) {
	tbl := mustNew(t, "t", "", fig1cGrid())
	ms := tbl.Mentions(DefaultVirtualOptions())
	// Fig. 1c: ratio('890','876') ≈ 1.57% expressed as percent.
	want := (890.0 - 876.0) / 890.0 * 100
	found := false
	for _, m := range ms {
		if m.Agg == quantity.Ratio && math.Abs(m.Value-want) < 1e-9 {
			found = true
			if m.Unit != "%" {
				t.Errorf("ratio unit = %q, want %%", m.Unit)
			}
			if m.Orient != OrientRow {
				t.Errorf("ratio orient = %v, want row", m.Orient)
			}
		}
	}
	if !found {
		t.Errorf("ratio(890,876) not generated")
	}
}

func TestMentionsDiffPositiveOnly(t *testing.T) {
	tbl := mustNew(t, "t", "", fig1aGrid())
	for _, m := range tbl.Mentions(DefaultVirtualOptions()) {
		if m.Agg == quantity.Diff && m.Value <= 0 {
			t.Errorf("non-positive diff generated: %v", m.Value)
		}
	}
}

func TestMentionsBudget(t *testing.T) {
	tbl := mustNew(t, "t", "", fig1aGrid())
	opts := DefaultVirtualOptions()
	opts.MaxPerTable = 10
	virtual := 0
	for _, m := range tbl.Mentions(opts) {
		if m.IsVirtual() {
			virtual++
		}
	}
	if virtual > 10 {
		t.Errorf("virtual count %d exceeds budget 10", virtual)
	}
}

func TestMentionsUnitGuard(t *testing.T) {
	// Mixed units in one row: no row aggregates across USD and EUR.
	tbl := mustNew(t, "t", "", [][]string{
		{"item", "us", "eu"},
		{"price", "$100", "€90"},
		{"tax", "$10", "€9"},
	})
	for _, m := range tbl.Mentions(DefaultVirtualOptions()) {
		if !m.IsVirtual() || m.Orient != OrientRow {
			continue
		}
		if m.Agg == quantity.Sum {
			t.Errorf("row sum across incompatible units: %v", m.Key())
		}
	}
}

func TestMentionKeyStable(t *testing.T) {
	tbl := mustNew(t, "t7", "", fig1aGrid())
	ms := tbl.Mentions(DefaultVirtualOptions())
	seen := map[string]bool{}
	for _, m := range ms {
		k := m.Key()
		if seen[k] {
			t.Errorf("duplicate key %q", k)
		}
		seen[k] = true
		if !strings.HasPrefix(k, "t7:") {
			t.Errorf("key %q missing table prefix", k)
		}
	}
}

// keySprintf is Key as it was written with fmt, one Sprintf form per key
// shape. Alignments' table keys carry these bytes, so AppendKey must
// reproduce them exactly.
func keySprintf(m *Mention) string {
	if !m.IsVirtual() {
		return fmt.Sprintf("%s:cell(%d,%d)", m.Table.ID, m.Cells[0].Row, m.Cells[0].Col)
	}
	if len(m.Cells) == 2 {
		return fmt.Sprintf("%s:%s(%d,%d|%d,%d)", m.Table.ID, m.Agg,
			m.Cells[0].Row, m.Cells[0].Col, m.Cells[1].Row, m.Cells[1].Col)
	}
	fix := m.Cells[0].Col
	if m.Orient == OrientRow {
		fix = m.Cells[0].Row
	}
	return fmt.Sprintf("%s:%s(%s %d)", m.Table.ID, m.Agg, m.Orient, fix)
}

func TestMentionKeyMatchesSprintf(t *testing.T) {
	opts := ExtendedVirtualOptions()
	opts.PairSums = true
	ms := mustNew(t, "pg-t3", "", fig1cGrid()).Mentions(opts)
	odd := &Table{ID: "p\"g\x00\xff-t12"}
	for _, m := range []*Mention{
		{Table: odd, Agg: quantity.SingleCell, Cells: []CellRef{{-1, 1234567}}},
		{Table: odd, Agg: quantity.Ratio, Cells: []CellRef{{0, 2}, {10, 2}}},
		{Table: odd, Agg: quantity.Agg(99), Cells: []CellRef{{3, 1}, {3, 4}}, Orient: OrientRow},
		{Table: odd, Agg: quantity.Agg(-2), Cells: []CellRef{{0, 5}, {1, 5}, {2, 5}}, Orient: OrientCol},
		{Table: odd, Agg: quantity.Max, Cells: []CellRef{{7, 0}, {7, 1}, {7, 2}}, Orient: OrientRow},
		{Table: odd, Agg: quantity.Avg, Cells: []CellRef{{0, 3}, {1, 3}, {2, 3}}, Orient: Orientation(9)},
	} {
		ms = append(ms, m)
	}
	shapes := map[string]bool{}
	for _, m := range ms {
		want := keySprintf(m)
		if got := m.Key(); got != want {
			t.Errorf("Key() = %q, want %q", got, want)
		}
		if got := string(m.AppendKey([]byte("tm|"))); got != "tm|"+want {
			t.Errorf("AppendKey after a prefix = %q, want %q", got, "tm|"+want)
		}
		switch {
		case !m.IsVirtual():
			shapes["cell"] = true
		case len(m.Cells) == 2:
			shapes["pair"] = true
		default:
			shapes["line"] = true
		}
	}
	if len(shapes) != 3 {
		t.Errorf("covered key shapes %v, want cell, pair and line", shapes)
	}
}

func TestMentionSurfaceAndPrecision(t *testing.T) {
	tbl := mustNew(t, "t", "", fig1cGrid())
	ms := tbl.Mentions(DefaultVirtualOptions())
	for _, m := range ms {
		if !m.IsVirtual() && m.Cells[0].Row == 0 && m.Cells[0].Col == 0 {
			if m.Surface() != "3,263" {
				t.Errorf("single-cell surface = %q, want raw text", m.Surface())
			}
		}
		if m.Agg == quantity.Ratio && m.Precision() != 2 {
			t.Errorf("ratio precision = %d, want 2", m.Precision())
		}
	}
}

func TestMentionContext(t *testing.T) {
	tbl := mustNew(t, "t", "", fig1aGrid())
	var sum *Mention
	for _, m := range tbl.Mentions(DefaultVirtualOptions()) {
		if m.Agg == quantity.Sum && m.Value == 123 {
			sum = m
			break
		}
	}
	if sum == nil {
		t.Fatal("no sum mention")
	}
	ctx := sum.Context()
	if !strings.Contains(ctx, "total") {
		t.Errorf("sum context misses column header: %q", ctx)
	}
}

func TestComputeStats(t *testing.T) {
	tbl := mustNew(t, "t", "", fig1aGrid())
	s := tbl.ComputeStats(DefaultVirtualOptions())
	if s.Rows != 5 || s.Cols != 3 {
		t.Errorf("stats dims = %dx%d", s.Rows, s.Cols)
	}
	if s.SingleCells != 15 {
		t.Errorf("single cells = %d, want 15", s.SingleCells)
	}
	if s.VirtualCells == 0 {
		t.Error("no virtual cells")
	}
}

func TestExtendedVirtualOptions(t *testing.T) {
	tbl := mustNew(t, "t", "", fig1aGrid())
	ms := tbl.Mentions(ExtendedVirtualOptions())
	var hasMin, hasMax, hasAvg bool
	for _, m := range ms {
		switch m.Agg {
		case quantity.Min:
			hasMin = true
		case quantity.Max:
			hasMax = true
		case quantity.Avg:
			hasAvg = true
		}
	}
	if !hasMin || !hasMax || !hasAvg {
		t.Errorf("extended aggs missing: min=%v max=%v avg=%v", hasMin, hasMax, hasAvg)
	}
}

func TestOrientationString(t *testing.T) {
	if OrientRow.String() != "row" || OrientCol.String() != "col" || OrientNone.String() != "" {
		t.Error("unexpected orientation names")
	}
}

func TestPairSums(t *testing.T) {
	// §II-A: "the total income of the last two years" — sum of the 2013 and
	// 2012 income cells, not the whole row.
	tbl := mustNew(t, "t", "", fig1cGrid())
	opts := DefaultVirtualOptions()
	opts.PairSums = true
	ms := tbl.Mentions(opts)
	want := 890.0 + 876.0
	found := false
	for _, m := range ms {
		if m.Agg == quantity.Sum && len(m.Cells) == 2 && m.Value == want {
			found = true
		}
	}
	if !found {
		t.Errorf("pair sum %v not generated with PairSums on", want)
	}

	// Keys stay unique with pair sums enabled.
	seen := map[string]bool{}
	for _, m := range ms {
		if seen[m.Key()] {
			t.Fatalf("duplicate key %s", m.Key())
		}
		seen[m.Key()] = true
	}

	// And off by default.
	for _, m := range tbl.Mentions(DefaultVirtualOptions()) {
		if m.Agg == quantity.Sum && len(m.Cells) == 2 {
			t.Fatalf("pair sum generated without the option: %s", m.Key())
		}
	}
}

func TestPairSumsAlignEndToEnd(t *testing.T) {
	tbl := mustNew(t, "t", "income gains by year", fig1cGrid())
	opts := DefaultVirtualOptions()
	opts.PairSums = true
	var target *Mention
	for _, m := range tbl.Mentions(opts) {
		if m.Agg == quantity.Sum && len(m.Cells) == 2 && m.Value == 890+876 {
			target = m
		}
	}
	if target == nil {
		t.Fatal("target pair sum missing")
	}
	if target.Orient != OrientRow {
		t.Errorf("pair sum orientation = %v, want row", target.Orient)
	}
}
