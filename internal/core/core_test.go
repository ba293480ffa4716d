package core

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"briq/internal/document"
	"briq/internal/htmlx"
	"briq/internal/quantity"
	"briq/internal/table"
)

func segmentOne(t *testing.T, text string, tbl *table.Table) *document.Document {
	t.Helper()
	docs := document.NewSegmenter().Segment("p", []string{text}, []*table.Table{tbl})
	if len(docs) != 1 {
		t.Fatalf("segmentation produced %d docs", len(docs))
	}
	return docs[0]
}

func alignmentFor(als []Alignment, surfacePart string) (Alignment, bool) {
	for _, a := range als {
		if strings.Contains(a.TextSurface, surfacePart) {
			return a, true
		}
	}
	return Alignment{}, false
}

// TestAlignFig1aHealth reproduces the paper's health example: "total of 123
// patients" must align to the sum of the total column.
func TestAlignFig1aHealth(t *testing.T) {
	tbl, err := table.New("t0", "side effects reported by patients", [][]string{
		{"side effects", "male", "female", "total"},
		{"Rash", "15", "20", "35"},
		{"Depression", "13", "25", "38"},
		{"Hypertension", "19", "15", "34"},
		{"Nausea", "5", "6", "11"},
		{"Eye Disorders", "2", "3", "5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := "A total of 123 patients who undergo the drug trials reported side effects, " +
		"of which there were 69 female patients and 54 male patients. " +
		"The most common side affect is depression, reported by 38 patients."
	doc := segmentOne(t, text, tbl)

	als := NewPipeline().Align(doc)

	sum, ok := alignmentFor(als, "123")
	if !ok {
		t.Fatalf("'123' not aligned; got %+v", als)
	}
	if sum.Agg != quantity.Sum || sum.Value != 123 {
		t.Errorf("'123' aligned to %s (%v=%v), want sum=123", sum.TableKey, sum.Agg, sum.Value)
	}

	if depr, ok := alignmentFor(als, "38"); ok {
		if depr.Agg != quantity.SingleCell || depr.Value != 38 {
			t.Errorf("'38' aligned to %s, want single cell 38", depr.TableKey)
		}
	} else {
		t.Error("'38' not aligned")
	}
}

// TestAlignFig1bEnvironment reproduces the approximate-mention example:
// "37K EUR" must align to the cell 36900 (German MSRP of the A3).
func TestAlignFig1bEnvironment(t *testing.T) {
	tbl, err := table.New("t0", "car ratings and price", [][]string{
		{"spec", "Focus E", "A3", "VW Golf"},
		{"German MSRP", "34900", "36900", "33800"},
		{"American MSRP", "29120", "38900", "29915"},
		{"Emission (g/km)", "0", "105", "122"},
		{"Final rating", "1.33", "2.67", "2.67"},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := "Audi A3 e-tron is the least affordable option with 37K EUR in Germany " +
		"and 39K USD in the US. The Ford Focus Electric has the lowest rating of 1.33 " +
		"with 0 emission."
	doc := segmentOne(t, text, tbl)

	als := NewPipeline().Align(doc)
	a3, ok := alignmentFor(als, "37K")
	if !ok {
		t.Fatalf("'37K EUR' not aligned; got %+v", als)
	}
	if a3.Value != 36900 {
		t.Errorf("'37K EUR' aligned to %s (value %v), want 36900", a3.TableKey, a3.Value)
	}
}

// TestAlignFig1cFinance reproduces the calculated-quantity example:
// "increased by 1.5%" must align to ratio(890, 876).
func TestAlignFig1cFinance(t *testing.T) {
	tbl, err := table.New("t0", "Income gains total revenue and income", [][]string{
		{"gains", "2013", "2012", "2011"},
		{"Total Revenue", "3,263", "3,193", "2,911"},
		{"Gross income", "1,069", "1,053", "877"},
		{"Income taxes", "179", "177", "160"},
		{"Income", "890", "876", "849"},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := "The net income of the year was 890 in total revenue terms. " +
		"Compared to the income of the previous year, it increased by 1.5%."
	doc := segmentOne(t, text, tbl)

	als := NewPipeline().Align(doc)
	ratio, ok := alignmentFor(als, "1.5%")
	if !ok {
		t.Fatalf("'1.5%%' not aligned; got %+v", als)
	}
	if ratio.Agg != quantity.Ratio {
		t.Errorf("'1.5%%' aligned to %s (%v), want a change ratio", ratio.TableKey, ratio.Agg)
	}
	want := (890.0 - 876.0) / 890.0 * 100
	if math.Abs(ratio.Value-want) > 1e-9 {
		t.Errorf("ratio value = %v, want %v (ratio(890,876))", ratio.Value, want)
	}
}

func TestAlignPageEndToEnd(t *testing.T) {
	html := `<html><head><title>Drug Trial</title></head><body>
<p>A total of 123 patients reported side effects, with 69 female patients.</p>
<table>
<caption>side effects reported by patients</caption>
<tr><th>side effects</th><th>male</th><th>female</th><th>total</th></tr>
<tr><td>Rash</td><td>15</td><td>20</td><td>35</td></tr>
<tr><td>Depression</td><td>13</td><td>25</td><td>38</td></tr>
<tr><td>Hypertension</td><td>19</td><td>15</td><td>34</td></tr>
<tr><td>Nausea</td><td>5</td><td>6</td><td>11</td></tr>
<tr><td>Eye Disorders</td><td>2</td><td>3</td><td>5</td></tr>
</table>
</body></html>`
	page := htmlx.ParseString(html)
	perDoc, err := alignPage(context.Background(), NewPipeline(), "page0", page)
	if err != nil {
		t.Fatal(err)
	}
	var als []Alignment
	for _, docAls := range perDoc {
		als = append(als, docAls...)
	}
	if len(als) == 0 {
		t.Fatal("no alignments from HTML page")
	}
	sum, ok := alignmentFor(als, "123")
	if !ok || sum.Agg != quantity.Sum {
		t.Errorf("page alignment for '123' = %+v", als)
	}
}

func TestAlignmentJSONRoundTrip(t *testing.T) {
	a := Alignment{
		DocID: "d0", TextSurface: "123", TableKey: "t0:sum(col 3)",
		Agg: quantity.Sum, AggName: "sum", Value: 123, Score: 0.9,
	}
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"agg":"sum"`) {
		t.Errorf("JSON = %s", data)
	}
	var back Alignment
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.TableKey != a.TableKey || back.Value != a.Value {
		t.Errorf("round trip = %+v", back)
	}
}

func TestScorePairsCoversAllPairs(t *testing.T) {
	tbl, err := table.New("t0", "counts", [][]string{
		{"name", "count"},
		{"a", "10"},
		{"b", "20"},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := segmentOne(t, "The counts were 10 and 20 overall.", tbl)
	p := NewPipeline()
	cands := p.ScorePairs(doc)
	want := len(doc.TextMentions) * len(doc.TableMentions)
	if len(cands) != want {
		t.Errorf("pairs = %d, want %d", len(cands), want)
	}
	for _, c := range cands {
		if c.Score < 0 || c.Score > 1 {
			t.Errorf("score out of range: %v", c.Score)
		}
	}
}
