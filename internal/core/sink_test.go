package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
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
