package corpus

import (
	"math"
	"testing"

	"briq/internal/quantity"
)

func smallConfig(seed int64) Config {
	cfg := TableSConfig(seed)
	cfg.Pages = 40
	return cfg
}

func TestGenerateDeterministic(t *testing.T) {
	c1 := Generate(smallConfig(7))
	c2 := Generate(smallConfig(7))
	if len(c1.Docs) != len(c2.Docs) || len(c1.Gold) != len(c2.Gold) {
		t.Fatalf("nondeterministic sizes: %d/%d docs, %d/%d gold",
			len(c1.Docs), len(c2.Docs), len(c1.Gold), len(c2.Gold))
	}
	for i := range c1.Docs {
		if c1.Docs[i].Text != c2.Docs[i].Text {
			t.Fatalf("doc %d text differs", i)
		}
	}
	for i := range c1.Gold {
		if c1.Gold[i] != c2.Gold[i] {
			t.Fatalf("gold %d differs: %+v vs %+v", i, c1.Gold[i], c2.Gold[i])
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	c1 := Generate(smallConfig(1))
	c2 := Generate(smallConfig(2))
	same := 0
	n := len(c1.Docs)
	if len(c2.Docs) < n {
		n = len(c2.Docs)
	}
	for i := 0; i < n; i++ {
		if c1.Docs[i].Text == c2.Docs[i].Text {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical corpora")
	}
}

func TestGoldAlignmentsAreValid(t *testing.T) {
	c := Generate(smallConfig(3))
	if len(c.Gold) == 0 {
		t.Fatal("no gold alignments")
	}
	docByID := map[string]int{}
	for i, doc := range c.Docs {
		docByID[doc.ID] = i
	}
	for _, gold := range c.Gold {
		di, ok := docByID[gold.DocID]
		if !ok {
			t.Fatalf("gold references unknown doc %s", gold.DocID)
		}
		doc := c.Docs[di]
		if gold.TextIndex < 0 || gold.TextIndex >= len(doc.TextMentions) {
			t.Fatalf("gold text index %d out of range", gold.TextIndex)
		}
		found := false
		for _, tm := range doc.TableMentions {
			if tm.Key() == gold.TableKey {
				found = true
				// The rendered text value must be numerically close to the
				// table mention (approximation/rounding allowed).
				x := doc.TextMentions[gold.TextIndex]
				if quantity.RelativeDifference(x.Value, tm.Value) > 0.35 {
					t.Errorf("gold pair far apart: text %v (%q) vs table %v (%s)",
						x.Value, x.Surface, tm.Value, gold.TableKey)
				}
				break
			}
		}
		if !found {
			t.Fatalf("gold table key %s missing from doc %s", gold.TableKey, gold.DocID)
		}
	}
}

func TestGoldCoverage(t *testing.T) {
	// Most rendered references must survive extraction+segmentation as gold;
	// heavy loss would bias every experiment.
	c := Generate(smallConfig(5))
	mentions := 0
	for _, d := range c.Docs {
		mentions += len(d.TextMentions)
	}
	if len(c.Gold) < mentions/3 {
		t.Errorf("only %d gold for %d text mentions — generation is leaking references",
			len(c.Gold), mentions)
	}
}

func TestAggregateMixFollowsTableI(t *testing.T) {
	cfg := smallConfig(11)
	cfg.Pages = 150
	c := Generate(cfg)
	counts := map[quantity.Agg]int{}
	for _, g := range c.Gold {
		counts[g.Agg]++
	}
	total := len(c.Gold)
	if total == 0 {
		t.Fatal("no gold")
	}
	singleShare := float64(counts[quantity.SingleCell]) / float64(total)
	if singleShare < 0.75 || singleShare > 0.95 {
		t.Errorf("single-cell share = %.2f, want ≈0.87 (Table I)", singleShare)
	}
	for _, agg := range []quantity.Agg{quantity.Sum, quantity.Diff, quantity.Percent, quantity.Ratio} {
		if counts[agg] == 0 {
			t.Errorf("no gold of type %v generated", agg)
		}
	}
}

func TestDomainsShapeTables(t *testing.T) {
	cfg := smallConfig(13)
	cfg.Pages = 120
	c := Generate(cfg)
	dims := map[Domain][2]float64{} // sum of rows, cols
	counts := map[Domain]float64{}
	for _, page := range c.Pages {
		for _, tbl := range page.Tables {
			d := dims[page.Domain]
			d[0] += float64(tbl.Rows())
			d[1] += float64(tbl.Cols())
			dims[page.Domain] = d
			counts[page.Domain]++
		}
	}
	if counts[Health] == 0 || counts[Sports] == 0 {
		t.Skip("seed produced no health or sports pages")
	}
	healthRows := dims[Health][0] / counts[Health]
	sportsRows := dims[Sports][0] / counts[Sports]
	sportsCols := dims[Sports][1] / counts[Sports]
	healthCols := dims[Health][1] / counts[Health]
	// Table IX: health 3×2, sports 8×6.
	if healthRows >= sportsRows || healthCols >= sportsCols {
		t.Errorf("health (%.1f×%.1f) should be smaller than sports (%.1f×%.1f)",
			healthRows, healthCols, sportsRows, sportsCols)
	}
}

func TestDocsByDomainPartition(t *testing.T) {
	c := Generate(smallConfig(17))
	total := 0
	for _, docs := range c.DocsByDomain() {
		total += len(docs)
	}
	if total != len(c.Docs) {
		t.Errorf("domain partition covers %d of %d docs", total, len(c.Docs))
	}
}

func TestTableSConfigScale(t *testing.T) {
	// The real tableS has 495 pages → 1,598 documents → 7,468 mentions;
	// verify the generator's ratios are in that ballpark (docs ≈ 3×pages,
	// mentions ≈ 4-5×docs).
	cfg := TableSConfig(42)
	cfg.Pages = 60
	c := Generate(cfg)
	docsPerPage := float64(len(c.Docs)) / 60
	if docsPerPage < 1.5 || docsPerPage > 5 {
		t.Errorf("docs per page = %.2f, want ≈3", docsPerPage)
	}
	mentions := 0
	for _, d := range c.Docs {
		mentions += len(d.TextMentions)
	}
	perDoc := float64(mentions) / float64(len(c.Docs))
	if perDoc < 2 || perDoc > 9 {
		t.Errorf("mentions per doc = %.2f, want ≈4.7", perDoc)
	}
}

func TestPerturbValues(t *testing.T) {
	tests := []struct {
		v        float64
		prec     int
		p        Perturbation
		want     float64
		wantPrec int
	}{
		{6746, 0, Truncated, 6740, 0},
		{6746, 0, Rounded, 6750, 0},
		{2.74, 2, Truncated, 2.7, 1},
		{2.74, 2, Rounded, 2.7, 1},
		{0.19, 2, Truncated, 0.1, 1},
		{0.19, 2, Rounded, 0.2, 1},
	}
	for _, tc := range tests {
		got, gotPrec, changed := perturbValue(tc.v, tc.prec, tc.p)
		if !changed {
			t.Errorf("perturbValue(%v,%v) unchanged", tc.v, tc.p)
			continue
		}
		if math.Abs(got-tc.want) > 1e-9 || gotPrec != tc.wantPrec {
			t.Errorf("perturbValue(%v,%d,%v) = (%v,%d), want (%v,%d)",
				tc.v, tc.prec, tc.p, got, gotPrec, tc.want, tc.wantPrec)
		}
	}
}

func TestPerturbDocs(t *testing.T) {
	c := Generate(smallConfig(19))
	trunc := PerturbDocs(c.Docs, Truncated)
	if len(trunc) != len(c.Docs) {
		t.Fatal("doc count changed")
	}
	changed := 0
	for i, doc := range trunc {
		if len(doc.TextMentions) != len(c.Docs[i].TextMentions) {
			t.Fatal("mention count changed")
		}
		for j, m := range doc.TextMentions {
			orig := c.Docs[i].TextMentions[j]
			if m.Value != orig.Value {
				changed++
				if m.Value == 0 && orig.Value != 0 {
					t.Errorf("perturbation zeroed a value: %v → %v", orig.Value, m.Value)
				}
			}
		}
	}
	if changed == 0 {
		t.Error("truncation changed nothing")
	}
	// Originals must be untouched (deep copy).
	for i, doc := range c.Docs {
		for j := range doc.TextMentions {
			if doc.TextMentions[j].Value != Generate(smallConfig(19)).Docs[i].TextMentions[j].Value {
				t.Fatal("PerturbDocs mutated the original corpus")
			}
		}
		break
	}
}

func TestPerturbOriginalIsIdentity(t *testing.T) {
	c := Generate(smallConfig(23))
	same := PerturbDocs(c.Docs, Original)
	if len(same) != len(c.Docs) || (len(same) > 0 && same[0] != c.Docs[0]) {
		t.Error("Original perturbation should return the input docs")
	}
}

func TestRewriteSurface(t *testing.T) {
	tests := []struct {
		surface  string
		oldV     float64
		oldPrec  int
		newV     float64
		newPrec  int
		expected string
	}{
		{"37.5K EUR", 37.5, 1, 37.4, 1, "37.4K EUR"},
		{"6746 units", 6746, 0, 6740, 0, "6740 units"},
		{"$2.74", 2.74, 2, 2.7, 1, "$2.7"},
		{"3,263", 3263, 0, 3260, 0, "3260"},
	}
	for _, tc := range tests {
		if got := rewriteSurface(tc.surface, tc.oldV, tc.oldPrec, tc.newV, tc.newPrec); got != tc.expected {
			t.Errorf("rewriteSurface(%q) = %q, want %q", tc.surface, got, tc.expected)
		}
	}
}

func TestSimulateAnnotation(t *testing.T) {
	c := Generate(smallConfig(29))
	ann := SimulateAnnotation(c.Gold, 8, 0.15, 99)
	if ann.Judged != len(c.Gold)+len(c.Gold)/2 {
		t.Errorf("judged %d, want gold pairs plus half as many distractors", ann.Judged)
	}
	// κ should land near the paper's 0.6854 with this error rate.
	if ann.Kappa < 0.5 || ann.Kappa > 0.85 {
		t.Errorf("kappa = %.4f, want ≈0.69", ann.Kappa)
	}
	if len(ann.Kept) < len(c.Gold)*9/10 {
		t.Errorf("only %d/%d pairs confirmed", len(ann.Kept), len(c.Gold))
	}
}

func TestDomainString(t *testing.T) {
	if Finance.String() != "finance" || Others.String() != "others" {
		t.Error("unexpected domain names")
	}
	if Domain(99).String() != "domain(99)" {
		t.Error("out-of-range name")
	}
	if len(AllDomains()) != int(NumDomains) {
		t.Error("AllDomains incomplete")
	}
}

func TestPerturbationString(t *testing.T) {
	if Original.String() != "original" || Truncated.String() != "truncated" || Rounded.String() != "rounded" {
		t.Error("unexpected perturbation names")
	}
}

func TestCollisionPagesShareValues(t *testing.T) {
	cfg := smallConfig(31)
	cfg.CollisionProb = 1.0
	cfg.Pages = 10
	c := Generate(cfg)
	for _, page := range c.Pages {
		if len(page.Tables) != 2 {
			t.Fatalf("page %s has %d tables, want 2 with CollisionProb=1", page.ID, len(page.Tables))
		}
		// At least one value must appear in both tables.
		vals := map[string]bool{}
		for r := 0; r < page.Tables[0].Rows(); r++ {
			for cc := 0; cc < page.Tables[0].Cols(); cc++ {
				vals[page.Tables[0].Cell(r, cc).Text] = true
			}
		}
		shared := false
		for r := 0; r < page.Tables[1].Rows() && !shared; r++ {
			for cc := 0; cc < page.Tables[1].Cols(); cc++ {
				if vals[page.Tables[1].Cell(r, cc).Text] {
					shared = true
					break
				}
			}
		}
		if !shared {
			t.Errorf("page %s collision tables share no values", page.ID)
		}
	}
}
