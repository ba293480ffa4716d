package graph

import (
	"context"
	"errors"
	"math"
	"testing"

	"briq/internal/document"
	"briq/internal/filter"
	"briq/internal/table"
)

// fig3Doc reproduces the coupled-quantities example of Fig. 3: two tables
// with identical values (11% appears in both; 13.3% appears in both), where
// only joint inference can resolve the right table.
func fig3Doc(t *testing.T) *document.Document {
	t.Helper()
	t1, err := table.New("t1", "Transportation Systems ($ Millions)", [][]string{
		{"metric", "2Q 2012", "2Q 2013", "% Change"},
		{"Sales", "900", "947", "5%"},
		{"Segment Profit", "114", "126", "11%"},
		{"Segment Margin", "12.7%", "13.3%", "60 bps"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := table.New("t2", "Automation & Control ($ Millions)", [][]string{
		{"metric", "2Q 2012", "2Q 2013", "% Change"},
		{"Sales", "3,962", "4,065", "3%"},
		{"Segment Profit", "525", "585", "11%"},
		{"Segment Margin", "13.3%", "14.4%", "110 bps"},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := "Sales were up 5% on both a reported and organic basis. " +
		"Segment profit was up 11% and segment margins increased 60 bps to 13.3%."
	docs := document.NewSegmenter().Segment("p", []string{text}, []*table.Table{t1, t2})
	if len(docs) != 1 {
		t.Fatal("segmentation failed")
	}
	return docs[0]
}

// candidatesByValue builds candidates pairing every text mention with every
// single-cell table mention of equal value (the post-filter state for exact
// matches), scored uniformly — forcing resolution to rely on the graph.
func candidatesByValue(doc *document.Document, score float64) []filter.Candidate {
	var out []filter.Candidate
	for xi, x := range doc.TextMentions {
		for ti, tm := range doc.TableMentions {
			if tm.IsVirtual() {
				continue
			}
			if tm.Value == x.Value {
				out = append(out, filter.Candidate{Text: xi, Table: ti, Score: score})
			}
		}
	}
	return out
}

func tableOf(doc *document.Document, ti int) string {
	return doc.TableMentions[ti].Table.ID
}

func TestBuildGraphStructure(t *testing.T) {
	doc := fig3Doc(t)
	cands := candidatesByValue(doc, 0.5)
	g := Build(DefaultConfig(), doc, cands)

	if g.NodeCount() <= len(doc.TextMentions) {
		t.Fatal("no table nodes")
	}
	if g.EdgeCount() == 0 {
		t.Fatal("no edges")
	}
	// Text-text edges must exist between nearby mentions.
	hasTextText := false
	for x := 0; x < len(doc.TextMentions); x++ {
		for _, e := range g.adj[x] {
			if e.to < len(doc.TextMentions) {
				hasTextText = true
			}
		}
	}
	if !hasTextText {
		t.Error("no text-text edges")
	}
}

func TestRWRProbabilities(t *testing.T) {
	doc := fig3Doc(t)
	g := Build(DefaultConfig(), doc, candidatesByValue(doc, 0.5))
	pi := g.RWR(0)
	if len(pi) == 0 {
		t.Fatal("empty RWR result")
	}
	for ti, p := range pi {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Errorf("π(%d) = %v out of range", ti, p)
		}
	}
}

func TestResolveFig3CoupledQuantities(t *testing.T) {
	// The crux of §VI: "11%" and "13.3%" match cells in both tables; the
	// unambiguous "5%" and "60 bps" anchor table 1, and joint inference must
	// pull the ambiguous mentions to table 1 as well.
	doc := fig3Doc(t)
	g := Build(DefaultConfig(), doc, candidatesByValue(doc, 0.5))
	alignments := resolve(t, g)

	if len(alignments) == 0 {
		t.Fatal("no alignments")
	}
	for _, a := range alignments {
		if got := tableOf(doc, a.Table); got != "t1" {
			x := doc.TextMentions[a.Text]
			t.Errorf("mention %q aligned to %s, want t1", x.Surface, got)
		}
	}
	// All four mentions should be resolved.
	if len(alignments) != 4 {
		t.Errorf("resolved %d mentions, want 4", len(alignments))
	}
}

func TestResolveRespectsEpsilon(t *testing.T) {
	doc := fig3Doc(t)
	cfg := DefaultConfig()
	cfg.Epsilon = 10 // impossible threshold
	g := Build(cfg, doc, candidatesByValue(doc, 0.5))
	if got := resolve(t, g); len(got) != 0 {
		t.Errorf("alignments above impossible ε: %d", len(got))
	}
}

func TestResolveDeterministic(t *testing.T) {
	doc := fig3Doc(t)
	run := func() []Alignment {
		g := Build(DefaultConfig(), doc, candidatesByValue(doc, 0.5))
		return resolve(t, g)
	}
	a1, a2 := run(), run()
	if len(a1) != len(a2) {
		t.Fatal("nondeterministic alignment count")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("nondeterministic alignment at %d: %+v vs %+v", i, a1[i], a2[i])
		}
	}
}

func TestResolveUsesPriors(t *testing.T) {
	// With strong priors toward table 2's cells, resolution should follow
	// the classifier when graph evidence is balanced.
	doc := fig3Doc(t)
	var cands []filter.Candidate
	for xi, x := range doc.TextMentions {
		if x.Surface != "11%" {
			continue
		}
		for ti, tm := range doc.TableMentions {
			if tm.IsVirtual() || tm.Value != 11 {
				continue
			}
			score := 0.2
			if tm.Table.ID == "t2" {
				score = 0.95
			}
			cands = append(cands, filter.Candidate{Text: xi, Table: ti, Score: score})
		}
	}
	if len(cands) < 2 {
		t.Fatal("expected 11% in both tables")
	}
	cfg := DefaultConfig()
	cfg.Alpha, cfg.Beta = 0.1, 0.9 // prior-dominated
	g := Build(cfg, doc, cands)
	alignments := resolve(t, g)
	if len(alignments) != 1 {
		t.Fatalf("want 1 alignment, got %d", len(alignments))
	}
	if got := tableOf(doc, alignments[0].Table); got != "t2" {
		t.Errorf("aligned to %s, want t2 (prior-dominated)", got)
	}
}

func TestKeepOnlyRemovesEdges(t *testing.T) {
	doc := fig3Doc(t)
	g := Build(DefaultConfig(), doc, candidatesByValue(doc, 0.5))
	before := g.EdgeCount()
	g.keepOnly(0, -1)
	after := g.EdgeCount()
	if after >= before {
		t.Errorf("keepOnly removed nothing: %d → %d", before, after)
	}
	for _, e := range g.adj[0] {
		if e.to >= len(doc.TextMentions) {
			t.Error("text-table edge survived keepOnly(x, -1)")
		}
	}
}

func TestRWRHandlesIsolatedNode(t *testing.T) {
	// A mention with no candidates is a dangling node; RWR must not diverge.
	doc := fig3Doc(t)
	g := Build(DefaultConfig(), doc, nil)
	pi := g.RWR(0)
	for _, p := range pi {
		if math.IsNaN(p) {
			t.Fatal("NaN probability on isolated graph")
		}
	}
	if got := resolve(t, g); len(got) != 0 {
		t.Errorf("alignments without candidates: %d", len(got))
	}
}

func TestSharesLine(t *testing.T) {
	a := []table.CellRef{{Row: 1, Col: 2}}
	b := []table.CellRef{{Row: 1, Col: 5}}
	c := []table.CellRef{{Row: 3, Col: 2}}
	d := []table.CellRef{{Row: 4, Col: 4}}
	if !sharesLine(a, b) {
		t.Error("same row should share")
	}
	if !sharesLine(a, c) {
		t.Error("same col should share")
	}
	if sharesLine(a, d) {
		t.Error("disjoint refs should not share")
	}
}

// resolve runs Resolve under a background context, which cannot cancel it.
func resolve(tb testing.TB, g *Graph) []Alignment {
	tb.Helper()
	out, err := g.Resolve(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestResolveStopsOnDoneContext: a context that is already done stops
// Resolve before its first walk, with the context's error and no
// alignments.
func TestResolveStopsOnDoneContext(t *testing.T) {
	doc := fig3Doc(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err := Build(DefaultConfig(), doc, candidatesByValue(doc, 0.5)).Resolve(ctx)
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("Resolve on a cancelled context = %v, %v; want nil, context.Canceled", got, err)
	}
}
