package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/htmlx"
	"briq/internal/quantity"
	"briq/internal/table"
)

// hashDocumentTablesFmt is HashDocumentTables as it was written with fmt,
// one Fprintf per record. It is the oracle for the strconv writer: the table
// part is hashed into every stored document key, so the two must produce the
// same bytes for every document.
func hashDocumentTablesFmt(w io.Writer, d *document.Document) {
	for _, t := range d.Tables {
		fmt.Fprintf(w, "table|%s|%s|%q|%q|%q|%d×%d|",
			t.ID, t.Caption, t.ColHeaders, t.RowHeaders, t.Footers, t.Rows(), t.Cols())
		for r := 0; r < t.Rows(); r++ {
			for c := 0; c < t.Cols(); c++ {
				fmt.Fprintf(w, "%s\x00", t.Cell(r, c).Text)
			}
		}
	}
	for _, m := range d.TableMentions {
		fmt.Fprintf(w, "tm|%s|%g|%s|%v|%d|", m.Key(), m.Value, m.Unit, m.Orient, m.Index)
	}
}

// requireFmtTableBytes fails unless HashDocumentTables writes exactly the
// oracle's bytes for d.
func requireFmtTableBytes(t *testing.T, label string, d *document.Document) {
	t.Helper()
	var got, want bytes.Buffer
	HashDocumentTables(&got, d)
	hashDocumentTablesFmt(&want, d)
	if bytes.Equal(got.Bytes(), want.Bytes()) {
		return
	}
	g, w := got.Bytes(), want.Bytes()
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(0, i-40)
	t.Fatalf("%s: table bytes differ at offset %d of %d (oracle %d):\ngot  %q\nwant %q",
		label, i, len(g), len(w), g[lo:min(len(g), i+40)], w[lo:min(len(w), i+40)])
}

// TestHashDocumentTablesMatchesFmt segments generated corpora twice — with
// the default segmenter, and with every aggregation plus two-cell sums — and
// requires the oracle's bytes for every document.
func TestHashDocumentTablesMatchesFmt(t *testing.T) {
	extended := document.NewSegmenter()
	extended.VirtualOpts = table.ExtendedVirtualOptions()
	extended.VirtualOpts.PairSums = true
	segmenters := []struct {
		name string
		seg  *document.Segmenter
	}{{"default", document.NewSegmenter()}, {"extended", extended}}

	aggs := map[string]bool{}
	docs := 0
	for seed := int64(1); seed <= 3; seed++ {
		cfg := corpus.TableSConfig(seed)
		cfg.Pages = 60
		for _, pg := range corpus.Generate(cfg).Pages {
			page := htmlx.ParseString(pg.HTML())
			for _, s := range segmenters {
				ds, err := s.seg.SegmentPage(pg.ID, page)
				if err != nil {
					t.Fatalf("seed %d page %s: %v", seed, pg.ID, err)
				}
				for _, d := range ds {
					requireFmtTableBytes(t, fmt.Sprintf("seed %d %s segmenter doc %s", seed, s.name, d.ID), d)
					docs++
					for _, m := range d.TableMentions {
						name := m.Agg.String()
						if m.Agg == quantity.Sum && len(m.Cells) == 2 {
							name = "pair-sum"
						}
						aggs[name] = true
					}
				}
			}
		}
	}
	for _, want := range []string{"single-cell", "sum", "pair-sum", "diff", "percent", "ratio", "avg", "min", "max"} {
		if !aggs[want] {
			t.Errorf("no %s mention in %d documents: the corpus does not exercise every key shape", want, docs)
		}
	}
}

// TestHashDocumentTablesEdgeBytes covers what generated corpora never hold:
// non-finite, signed-zero and exponent-form values; quotes, backslashes, NUL
// and invalid UTF-8 in the caption, headers, footers, cells and units; nil
// and empty header slices; a caption longer than the writer's buffer; an
// out-of-range aggregation and orientation.
func TestHashDocumentTablesEdgeBytes(t *testing.T) {
	odd := "say \"hi\" C:\\dir\x00nul \xff\xfe\xc3 é\u2028end"
	t0, err := table.New("pg-t0", "caption "+odd, [][]string{
		{"", "h\"1", "h\\2 " + odd},
		{"r1 " + odd, "12", "7"},
		{"r2", "3.5", odd},
	})
	if err != nil {
		t.Fatal(err)
	}
	t0.Footers = []string{odd, "", "\t"}
	t1, err := table.New("pg-t1", strings.Repeat(odd, 400), [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	t1.ColHeaders, t1.RowHeaders, t1.Footers = nil, []string{}, nil

	refs := func(rc ...int) []table.CellRef {
		var out []table.CellRef
		for i := 0; i < len(rc); i += 2 {
			out = append(out, table.CellRef{Row: rc[i], Col: rc[i+1]})
		}
		return out
	}
	var ms []*table.Mention
	add := func(m *table.Mention) {
		m.Index = len(ms)
		ms = append(ms, m)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		1e21, 1e20, 1e-7, 1e-4, 123.456, -2.5e-300, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		add(&table.Mention{Table: t0, Agg: quantity.SingleCell, Cells: refs(0, 1), Value: v, Unit: odd})
	}
	add(&table.Mention{Table: t0, Agg: quantity.Sum, Cells: refs(0, 0, 1, 0), Value: 15.5, Orient: table.OrientCol})
	add(&table.Mention{Table: t0, Agg: quantity.Avg, Cells: refs(1, 0, 1, 1, 1, 2), Value: math.NaN(), Orient: table.OrientRow})
	add(&table.Mention{Table: t1, Agg: quantity.Agg(42), Cells: refs(0, 1, 1, 1, 1, 0), Value: math.Inf(1), Orient: table.Orientation(7)})
	add(&table.Mention{Table: t1, Agg: quantity.Diff, Cells: refs(0, 0, 0, 1), Value: -1, Unit: "%"})
	ms = append(ms, t1.Mentions(table.ExtendedVirtualOptions())...)

	requireFmtTableBytes(t, "edge document", &document.Document{
		ID: "pg-d0", PageID: "pg", Text: odd,
		Tables:        []*table.Table{t0, t1},
		TableMentions: ms,
	})
	requireFmtTableBytes(t, "no tables", &document.Document{ID: "pg-d1"})
}

// FuzzHashDocumentTables builds a table from a caption, a tab-separated
// header row and a tab-separated grid of cells (rows of the header's width,
// at most four), generates its mentions with the default virtual options, and
// requires the oracle's bytes.
func FuzzHashDocumentTables(f *testing.F) {
	f.Add("side effects reported by patients", "side effects\tmale\tfemale\ttotal",
		"Rash\t15\t20\t35\tDepression\t13\t25\t38\tNausea\t5\t6\t11")
	f.Add("Income gains (in Mio)", "\t2013\t2012", "Total Revenue\t3,263\t3,193\tIncome\t890\t876")
	f.Add("", "", "1\t2\t3\t4")
	f.Add("q\"uote\\", "a\x00b\t\xff", "1e21\t-0\t1e-7\tNaN")
	f.Fuzz(func(t *testing.T, caption, header, cells string) {
		head := strings.Split(header, "\t")
		if len(head) > 4 {
			head = head[:4]
		}
		grid := [][]string{head}
		fields := strings.Split(cells, "\t")
		for len(fields) > 0 && len(grid) < 5 {
			row := make([]string, len(head))
			n := copy(row, fields)
			fields = fields[n:]
			grid = append(grid, row)
		}
		tbl, err := table.New("pg-t0", caption, grid)
		if err != nil {
			return
		}
		requireFmtTableBytes(t, "fuzzed table", &document.Document{
			ID: "pg-d0", PageID: "pg",
			Tables:        []*table.Table{tbl},
			TableMentions: tbl.Mentions(table.DefaultVirtualOptions()),
		})
	})
}
