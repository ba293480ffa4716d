package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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
}

// requireFmtTableBytes fails unless HashDocumentTables writes exactly the
// oracle's bytes for d.
func requireFmtTableBytes(t *testing.T, label string, d *document.Document) {
	t.Helper()
	requireOracleBytes(t, label+": table", HashDocumentTables, hashDocumentTablesFmt, d)
}

// hashDocumentTextFmt is HashDocumentText as it was written with fmt, one
// Fprintf per record. It is the oracle for the strconv writer: the text part
// is hashed into every stored document key.
func hashDocumentTextFmt(w io.Writer, d *document.Document) {
	fmt.Fprintf(w, "text|%s|", d.Text)
	for _, m := range d.TextMentions {
		fmt.Fprintf(w, "xm|%+v|", m)
	}
}

// requireFmtTextBytes fails unless HashDocumentText writes exactly the
// oracle's bytes for d.
func requireFmtTextBytes(t *testing.T, label string, d *document.Document) {
	t.Helper()
	requireOracleBytes(t, label+": text", HashDocumentText, hashDocumentTextFmt, d)
}

// requireOracleBytes fails unless write and oracle write the same bytes for
// d, showing where they first differ.
func requireOracleBytes(t *testing.T, label string, write, oracle func(io.Writer, *document.Document), d *document.Document) {
	t.Helper()
	var got, want bytes.Buffer
	write(&got, d)
	oracle(&want, d)
	if bytes.Equal(got.Bytes(), want.Bytes()) {
		return
	}
	g, w := got.Bytes(), want.Bytes()
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(0, i-40)
	t.Fatalf("%s bytes differ at offset %d of %d (oracle %d):\ngot  %q\nwant %q",
		label, i, len(g), len(w), g[lo:min(len(g), i+40)], w[lo:min(len(w), i+40)])
}

type namedSegmenter struct {
	name string
	seg  *document.Segmenter
}

// segmenters are the two configurations the key tests segment corpora
// under: the default, and every aggregation plus two-cell sums.
func segmenters() []namedSegmenter {
	extended := document.NewSegmenter()
	extended.VirtualOpts = table.ExtendedVirtualOptions()
	extended.VirtualOpts.PairSums = true
	return []namedSegmenter{{"default", document.NewSegmenter()}, {"extended", extended}}
}

// segmentedCorpora calls fn with every document of tableS seeds 1–3 at 60
// pages, segmented by seg.
func segmentedCorpora(t *testing.T, seg *document.Segmenter, fn func(seed int64, d *document.Document)) {
	t.Helper()
	for seed := int64(1); seed <= 3; seed++ {
		cfg := corpus.TableSConfig(seed)
		cfg.Pages = 60
		for _, pg := range corpus.Generate(cfg).Pages {
			ds, err := seg.SegmentPage(pg.ID, htmlx.ParseString(pg.HTML()))
			if err != nil {
				t.Fatalf("seed %d page %s: %v", seed, pg.ID, err)
			}
			for _, d := range ds {
				fn(seed, d)
			}
		}
	}
}

// TestHashDocumentTablesMatchesFmt segments generated corpora under both
// segmenters and requires the oracle's bytes for every document.
func TestHashDocumentTablesMatchesFmt(t *testing.T) {
	for _, s := range segmenters() {
		segmentedCorpora(t, s.seg, func(seed int64, d *document.Document) {
			requireFmtTableBytes(t, fmt.Sprintf("seed %d %s segmenter doc %s", seed, s.name, d.ID), d)
		})
	}
}

// TestHashDocumentTextMatchesFmt segments generated corpora and requires the
// oracle's text bytes for every document.
func TestHashDocumentTextMatchesFmt(t *testing.T) {
	docs := 0
	segmentedCorpora(t, document.NewSegmenter(), func(seed int64, d *document.Document) {
		docs++
		requireFmtTextBytes(t, fmt.Sprintf("seed %d doc %s", seed, d.ID), d)
	})
	if docs == 0 {
		t.Fatal("no documents")
	}
}

// oddMention is a text mention with every field set to a value generated
// text never holds.
func oddMention(surface, unit string, value, raw float64, approx quantity.Approx) quantity.Mention {
	return quantity.Mention{
		Surface: surface, Value: value, RawValue: raw, Unit: unit,
		Scale: -7, Precision: 12, Approx: approx,
		Start: 3, End: -1, Sentence: 1 << 40, TokenPos: -(1 << 40),
	}
}

// TestHashDocumentTextEdgeBytes covers what generated corpora never hold:
// separators, braces, quotes and invalid UTF-8 in the text, surfaces and
// units; NaN, ±Inf, −0, 1e21, 1e-7 and the extremes of float64 as values;
// every Approx, an out-of-range one included; no mentions and no text.
func TestHashDocumentTextEdgeBytes(t *testing.T) {
	odd := "a|b}c{ \"q\" \xff\xfe\xc3 é\u2028xm|{Surface:x}|"
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e21, 1e20, 1e-7, 1e-4,
		123456, 1234567, 0.1 + 0.2, math.MaxFloat64, math.SmallestNonzeroFloat64, -3.26e9}
	var ms []quantity.Mention
	for i, v := range values {
		ms = append(ms, oddMention(odd, "|}"+odd, v, values[len(values)-1-i], quantity.Approx(i%7-1)))
	}
	requireFmtTextBytes(t, "edge document", &document.Document{ID: "pg-d0", Text: odd, TextMentions: ms})
	requireFmtTextBytes(t, "no mentions", &document.Document{ID: "pg-d1", Text: odd})
	requireFmtTextBytes(t, "empty", &document.Document{ID: "pg-d2"})
}

// FuzzHashDocumentText builds a document of one paragraph and two text
// mentions from fuzzed text, surface, unit, values, integer fields and
// approximation indicator, and requires the oracle's bytes.
func FuzzHashDocumentText(f *testing.F) {
	f.Add("A total of 123 patients.", "total of 123", "", 123.0, 123.0, 2, 0, 1, 0, 17, 0, 3)
	f.Add("a|b}c", "x|}", "u|}{", math.NaN(), math.Inf(1), -1, 5, 9, -3, 0, 1, 2)
	f.Add("\xff\xfe", "\xc3", "\x00", math.Inf(-1), math.Copysign(0, -1), 7, -7, -1, 1<<40, -(1 << 40), 3, 4)
	f.Add("", "", "USD", 1e21, 1e-7, 99, 0, 0, 0, 0, 0, 0)
	f.Fuzz(func(t *testing.T, text, surface, unit string, value, raw float64, approx, scale, precision, start, end, sentence, tokenPos int) {
		m := quantity.Mention{
			Surface: surface, Value: value, RawValue: raw, Unit: unit,
			Scale: scale, Precision: precision, Approx: quantity.Approx(approx),
			Start: start, End: end, Sentence: sentence, TokenPos: tokenPos,
		}
		other := m
		other.Surface, other.Unit = unit, surface
		other.Value, other.RawValue = raw, value
		requireFmtTextBytes(t, "fuzzed document", &document.Document{
			ID: "pg-d0", PageID: "pg", Text: text,
			TextMentions: []quantity.Mention{m, other},
		})
	})
}

// TestExtractionPinned pins what extraction makes of the generated corpora:
// one SHA-256 per segmenter over a "doc|%s|" record per document (ID)
// followed by its table mentions, each written as "tm|%s|%g|%s|%v|" (Key,
// Value, Unit, Orient). Document keys cover a table's source, not its
// mentions, so a change to cell parsing, unit propagation or virtual-cell
// generation moves no key by itself; it must bump ExtractionVersion, which
// Fingerprint hashes, or cached and stored results of the old extraction
// would be served for the new one.
func TestExtractionPinned(t *testing.T) {
	want := map[string]string{
		"default":  "1625bbb19e2cb841fe6773b91a371cf9da20a819e22170eb85ddc3896b8796a6",
		"extended": "18ec61ec3a5670c86c239526d591b9305f4d62f238aaafef840cd50486173218",
	}
	aggs := map[string]bool{}
	for _, s := range segmenters() {
		h := sha256.New()
		docs := 0
		segmentedCorpora(t, s.seg, func(_ int64, d *document.Document) {
			docs++
			fmt.Fprintf(h, "doc|%s|", d.ID)
			for _, m := range d.TableMentions {
				fmt.Fprintf(h, "tm|%s|%g|%s|%v|", m.Key(), m.Value, m.Unit, m.Orient)
				name := m.Agg.String()
				if m.Agg == quantity.Sum && len(m.Cells) == 2 {
					name = "pair-sum"
				}
				aggs[name] = true
			}
		})
		if got := hex.EncodeToString(h.Sum(nil)); got != want[s.name] {
			t.Errorf("%s segmenter: table mentions of %d documents hash to %s, want %s.\n"+
				"Extraction changed: bump core.ExtractionVersion and re-pin this test.",
				s.name, docs, got, want[s.name])
		}
	}
	for _, name := range []string{"single-cell", "sum", "pair-sum", "diff", "percent", "ratio", "avg", "min", "max"} {
		if !aggs[name] {
			t.Errorf("no %s mention: the corpora do not exercise every aggregation", name)
		}
	}
}

// TestHashDocumentTablesEdgeBytes covers what generated corpora never hold:
// quotes, backslashes, NUL and invalid UTF-8 in the caption, headers,
// footers and cells; nil and empty header slices; a caption longer than the
// writer's buffer.
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

	requireFmtTableBytes(t, "edge document", &document.Document{
		ID: "pg-d0", PageID: "pg", Text: odd,
		Tables: []*table.Table{t0, t1},
	})
	requireFmtTableBytes(t, "no tables", &document.Document{ID: "pg-d1"})
}

// FuzzHashDocumentTables builds a table from a caption, a tab-separated
// header row and a tab-separated grid of cells (rows of the header's width,
// at most four), and requires the oracle's bytes.
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
			Tables: []*table.Table{tbl},
		})
	})
}
