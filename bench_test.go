// Benchmarks regenerating every table of the paper's evaluation (§VII–VIII)
// plus ablation benches for the design choices called out in DESIGN.md.
// Each benchmark prints its reproduced table to stdout, so
//
//	go test -bench=. -benchmem | tee bench_output.txt
//
// captures the full reproduction. EXPERIMENTS.md records the paper-vs-
// measured comparison. Absolute throughput numbers differ from the paper's
// Spark cluster; the reproduction target is the shape of each result.
package briq_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"briq/internal/corpus"
	"briq/internal/experiment"
	"briq/internal/filter"
	"briq/internal/graph"
	"briq/internal/htmlx"
	"briq/internal/ilp"
	"briq/internal/quantity"
	"briq/internal/runtime"
	"briq/internal/table"
)

// The tableS-scale fixture (495 pages as in §VII-A) is expensive; it is
// built once and shared by every quality benchmark.
var (
	fixOnce    sync.Once
	fixCorpus  *corpus.Corpus
	fixSplit   experiment.Split
	fixTrained *experiment.Trained
	fixErr     error
)

func fixture(b *testing.B) (*corpus.Corpus, experiment.Split, *experiment.Trained) {
	b.Helper()
	fixOnce.Do(func() {
		cfg := corpus.TableSConfig(42)
		fixCorpus = corpus.Generate(cfg)
		fixSplit = experiment.SplitCorpus(fixCorpus, 42)
		fixTrained, fixErr = experiment.Train(fixCorpus, fixSplit.Train, experiment.DefaultTrainOptions(42))
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fixCorpus, fixSplit, fixTrained
}

var printOnce sync.Map

// printTable prints a reproduced table exactly once per process.
func printTable(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

func BenchmarkTableI(b *testing.B) {
	c, split, _ := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := experiment.BuildTrainingData(c, split.Train,
			fixTrained.Opts.FeatureConfig, fixTrained.Opts.Mask)
		if i == 0 {
			printTable("tableI", experiment.RunTableI(data).String())
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	c, split, tr := fixture(b)
	systems := []experiment.System{
		experiment.NewRFOnly(tr),
		experiment.NewRWROnly(tr.Opts.FeatureConfig, tr.Opts.Mask),
		experiment.NewBriQ(tr),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _ := experiment.RunTableII(c, systems, split.Test)
		if i == 0 {
			printTable("tableII", rep.String())
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	c, split, tr := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _ := experiment.RunByType("Table III", experiment.NewRFOnly(tr), c, split.Test)
		if i == 0 {
			printTable("tableIII", rep.String())
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	c, split, tr := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _ := experiment.RunByType("Table IV",
			experiment.NewRWROnly(tr.Opts.FeatureConfig, tr.Opts.Mask), c, split.Test)
		if i == 0 {
			printTable("tableIV", rep.String())
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	c, split, tr := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _ := experiment.RunByType("Table V", experiment.NewBriQ(tr), c, split.Test)
		if i == 0 {
			printTable("tableV", rep.String())
		}
	}
}

func BenchmarkTableVI(b *testing.B) {
	c, split, tr := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _ := experiment.RunTableVI(c, tr, split.Test)
		if i == 0 {
			printTable("tableVI", rep.String())
		}
	}
}

func BenchmarkTableVII(b *testing.B) {
	c, split, _ := fixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _, err := experiment.RunTableVII(c, split, experiment.DefaultTrainOptions(42))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			printTable("tableVII", rep.String())
		}
	}
}

func BenchmarkTableVIII(b *testing.B) {
	_, _, tr := fixture(b)
	lc := corpus.Generate(corpus.TableLConfig(43, 600))
	briq := experiment.NewBriQ(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _ := experiment.RunTableVIII(lc, briq.P, 0)
		if i == 0 {
			// The 30×-faster-than-RWR comparison of §VIII-C, on a subsample.
			sub := lc.Docs
			if len(sub) > 60 {
				sub = sub[:60]
			}
			briqRate := experiment.MeasureThroughput(briq, sub)
			rwrRate := experiment.MeasureThroughput(
				experiment.NewRWROnly(tr.Opts.FeatureConfig, tr.Opts.Mask), sub)
			speedup := 0.0
			if rwrRate > 0 {
				speedup = briqRate / rwrRate
			}
			printTable("tableVIII", fmt.Sprintf("%s\nBriQ %.0f docs/min vs RWR-only %.0f docs/min on a %d-doc sample: %.1fx faster (paper: 30x)\n",
				rep, briqRate, rwrRate, len(sub), speedup))
		}
	}
}

func BenchmarkTableIX(b *testing.B) {
	lc := corpus.Generate(corpus.TableLConfig(43, 600))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _ := experiment.RunTableIX(lc, table.DefaultVirtualOptions())
		if i == 0 {
			printTable("tableIX", rep.String())
		}
	}
}

// BenchmarkFig3CoupledQuantities reproduces the Fig. 3/Fig. 4 worked
// example: joint resolution of same-value mentions across two tables.
func BenchmarkFig3CoupledQuantities(b *testing.B) {
	_, _, tr := fixture(b)
	t1, err := table.New("t1", "Table 1: Transportation Systems ($ Millions)", [][]string{
		{"metric", "2Q 2012", "2Q 2013", "% Change"},
		{"Sales", "900", "947", "5%"},
		{"Segment Profit", "114", "126", "11%"},
		{"Segment Margin", "12.7%", "13.3%", "60 bps"},
	})
	if err != nil {
		b.Fatal(err)
	}
	t2, err := table.New("t2", "Table 2: Automation & Control ($ Millions)", [][]string{
		{"metric", "2Q 2012", "2Q 2013", "% Change"},
		{"Sales", "3,962", "4,065", "3%"},
		{"Segment Profit", "525", "585", "11%"},
		{"Segment Margin", "13.3%", "14.4%", "110 bps"},
	})
	if err != nil {
		b.Fatal(err)
	}
	text := "Sales were up 5% on both a reported and organic basis. " +
		"Segment profit was up 11% and segment margins increased 60 bps to 13.3%."
	docs := experiment.NewBriQ(tr).P.Segmenter.Segment("fig3", []string{text}, []*table.Table{t1, t2})
	if len(docs) != 1 {
		b.Fatal("segmentation failed")
	}
	briq := experiment.NewBriQ(tr)
	b.ResetTimer()
	inT1 := 0
	var total int
	for i := 0; i < b.N; i++ {
		preds := briq.Predict(docs[0])
		total = len(preds)
		inT1 = 0
		for _, p := range preds {
			if len(p.TableKey) >= 2 && p.TableKey[:2] == "t1" {
				inT1++
			}
		}
	}
	printTable("fig3", fmt.Sprintf("Fig. 3 coupled quantities: %d/%d mentions resolved to table 1 (want all)\n", inT1, total))
}

// BenchmarkILPScaling reproduces the §VI observation that exact ILP-based
// global resolution does not scale. Behind BriQ's adaptive filtering the
// candidate sets are small enough for either resolver (see
// BenchmarkILPPipeline); the paper's ILP ran over the *unpruned* coupled
// space, which this bench models directly: m mentions × k coherent
// candidates each. Branch-and-bound node counts grow exponentially while
// RWR-style iteration stays polynomial.
func BenchmarkILPScaling(b *testing.B) {
	for _, size := range []struct{ m, k int }{{6, 4}, {10, 8}, {14, 12}} {
		b.Run(fmt.Sprintf("m=%d/k=%d", size.m, size.k), func(b *testing.B) {
			problem := denseProblem(size.m, size.k)
			var nodes int
			for i := 0; i < b.N; i++ {
				sol, err := ilp.SolveContext(context.Background(), problem, 30*time.Second)
				// Running out of budget is the measured outcome at the
				// largest size, not a failure: bb-nodes shows how far the
				// search got.
				if err != nil && !errors.Is(err, ilp.ErrBudgetExhausted) {
					b.Fatal(err)
				}
				nodes = sol.Nodes
			}
			b.ReportMetric(float64(nodes), "bb-nodes")
		})
	}
}

// denseProblem builds a tightly coupled assignment problem: every candidate
// pair across mentions shares some coherence, and priors are near-ties — the
// regime where bounding cannot prune.
func denseProblem(m, k int) ilp.Problem {
	p := ilp.Problem{
		Coherence: func(a, b int) float64 {
			if (a+b)%3 == 0 {
				return 0.05
			}
			return 0.01
		},
	}
	for mi := 0; mi < m; mi++ {
		var cands []ilp.Cand
		for ci := 0; ci < k; ci++ {
			// Near-tie priors: differences below the coherence scale.
			cands = append(cands, ilp.Cand{Target: mi*k + ci, Score: 0.5 + 0.001*float64(ci)})
		}
		p.Candidates = append(p.Candidates, cands)
	}
	return p
}

// BenchmarkILPPipeline compares the full ILP-resolved pipeline against BriQ
// behind identical classifier+filter stages: with filtering in place both
// are tractable and of comparable quality (the paper dropped ILP for its
// behavior without such pruning).
func BenchmarkILPPipeline(b *testing.B) {
	_, split, tr := fixture(b)
	docs := split.Test
	if len(docs) > 25 {
		docs = docs[:25]
	}
	b.Run("RWR", func(b *testing.B) {
		briq := experiment.NewBriQ(tr)
		for i := 0; i < b.N; i++ {
			for _, doc := range docs {
				briq.Predict(doc)
			}
		}
	})
	b.Run("ILP", func(b *testing.B) {
		ilpSys := experiment.NewILP(tr, 5*time.Second)
		for i := 0; i < b.N; i++ {
			for _, doc := range docs {
				ilpSys.Predict(doc)
			}
		}
	})
}

// BenchmarkAblationClassWeights quantifies design decision ✦2 of DESIGN.md:
// inverse-frequency class weights vs uniform weights under the paper's label
// imbalance.
func BenchmarkAblationClassWeights(b *testing.B) {
	c, split, _ := fixture(b)
	for _, weighted := range []bool{true, false} {
		name := "weighted"
		if !weighted {
			name = "uniform"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := experiment.DefaultTrainOptions(42)
				if !weighted {
					opts.Forest.ClassWeights = []float64{1, 1}
				}
				tr, err := experiment.Train(c, split.Train, opts)
				if err != nil {
					b.Fatal(err)
				}
				eval := experiment.Evaluate(experiment.NewBriQ(tr), c, split.Test)
				if i == 0 {
					printTable("ablation-weights-"+name,
						fmt.Sprintf("class-weight ablation (%s): F1=%.3f P=%.3f R=%.3f\n",
							name, eval.Overall.F1, eval.Overall.Precision, eval.Overall.Recall))
				}
			}
		})
	}
}

// BenchmarkAblationEntropyOrder quantifies design decision ✦3: processing
// text mentions in increasing-entropy order with graph rewiring vs document
// order vs no rewiring.
func BenchmarkAblationEntropyOrder(b *testing.B) {
	c, split, tr := fixture(b)
	variants := []struct {
		name   string
		mutate func(*graph.Config)
	}{
		{"entropy+rewire", func(*graph.Config) {}},
		{"document-order", func(g *graph.Config) { g.DisableEntropyOrder = true }},
		{"no-rewire", func(g *graph.Config) { g.DisableRewire = true }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				briq := experiment.NewBriQ(tr)
				v.mutate(&briq.P.GraphConfig)
				eval := experiment.Evaluate(briq, c, split.Test)
				if i == 0 {
					printTable("ablation-order-"+v.name,
						fmt.Sprintf("resolution-order ablation (%s): F1=%.3f\n", v.name, eval.Overall.F1))
				}
			}
		})
	}
}

// BenchmarkAblationVirtualCellCap quantifies design decision ✦1: the
// virtual-cell generation cap trades candidate coverage against runtime.
func BenchmarkAblationVirtualCellCap(b *testing.B) {
	tbl := buildWideTable(b, 10, 8)
	for _, cap := range []int{50, 500, 5000} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			opts := table.DefaultVirtualOptions()
			opts.MaxPerTable = cap
			n := 0
			for i := 0; i < b.N; i++ {
				n = len(tbl.Mentions(opts))
			}
			b.ReportMetric(float64(n), "mentions")
		})
	}
}

func buildWideTable(b *testing.B, rows, cols int) *table.Table {
	b.Helper()
	grid := [][]string{make([]string, cols+1)}
	grid[0][0] = "category"
	for c := 0; c < cols; c++ {
		grid[0][c+1] = fmt.Sprintf("col %c", 'A'+c)
	}
	for r := 0; r < rows; r++ {
		row := make([]string, cols+1)
		row[0] = fmt.Sprintf("row %d", r)
		for c := 0; c < cols; c++ {
			row[c+1] = fmt.Sprint(100 + r*cols + c)
		}
		grid = append(grid, row)
	}
	tbl, err := table.New("wide", "wide synthetic table", grid)
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// BenchmarkAblationSharedCellBoost quantifies the shared-cell edge boost
// (relatedness-strength weighting, §VI).
func BenchmarkAblationSharedCellBoost(b *testing.B) {
	c, split, tr := fixture(b)
	for _, boost := range []float64{1.0, 2.5} {
		b.Run(fmt.Sprintf("boost=%.1f", boost), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				briq := experiment.NewBriQ(tr)
				briq.P.GraphConfig.SharedCellBoost = boost
				eval := experiment.Evaluate(briq, c, split.Test)
				if i == 0 {
					printTable(fmt.Sprintf("ablation-boost-%.1f", boost),
						fmt.Sprintf("shared-cell boost ablation (%.1f): F1=%.3f\n", boost, eval.Overall.F1))
				}
			}
		})
	}
}

// BenchmarkPipelineAlign is the end-to-end per-document latency of the full
// system (classifier + filter + graph resolution).
func BenchmarkPipelineAlign(b *testing.B) {
	c, split, tr := fixture(b)
	_ = c
	briq := experiment.NewBriQ(tr)
	docs := split.Test
	if len(docs) == 0 {
		b.Fatal("no test docs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		briq.Predict(docs[i%len(docs)])
	}
}

// BenchmarkAlignPage is the per-page latency of the served miss path: each
// page of the test split, pre-parsed, is segmented keys-only and aligned
// through runtime.AlignPerDoc, which builds its documents' table mentions
// and aligns them in order through one feature.Tables, as behind every
// alignment route. BenchmarkPipelineAlign aligns pre-segmented documents one
// at a time and cannot show that sharing.
func BenchmarkAlignPage(b *testing.B) {
	c, split, tr := fixture(b)
	p := experiment.NewBriQ(tr).P
	test := map[string]bool{}
	for _, d := range split.Test {
		test[d.PageID] = true
	}
	var ids []string
	var pages []*htmlx.Page
	for _, pg := range c.Pages {
		if test[pg.ID] {
			ids = append(ids, pg.ID)
			pages = append(pages, htmlx.ParseString(pg.HTML()))
		}
	}
	if len(pages) == 0 {
		b.Fatal("no test pages")
	}
	docs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pages)
		seg, err := p.Segmenter.SegmentPageKeys(ids[k], pages[k])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := runtime.AlignPerDoc(context.Background(), p, seg.Docs, 1); err != nil {
			b.Fatal(err)
		}
		docs += len(seg.Docs)
	}
	b.ReportMetric(float64(docs)/float64(b.N), "docs/page")
}

// BenchmarkAdaptiveFiltering isolates the filtering stage (§V).
func BenchmarkAdaptiveFiltering(b *testing.B) {
	_, split, tr := fixture(b)
	briq := experiment.NewBriQ(tr)
	doc := split.Test[0]
	cands := briq.P.ScorePairs(doc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filter.Apply(briq.P.FilterConfig, doc, briq.P.Tagger, cands)
	}
}

// BenchmarkQuantityExtraction isolates text quantity extraction (§III).
func BenchmarkQuantityExtraction(b *testing.B) {
	text := "In 2013 revenue of $3.26 billion CDN was up $70 million CDN or 2% " +
		"from the previous year. The net income of 2013 was $0.9 billion CDN. " +
		"Compared to the revenue of 2012, it increased by 1.5%."
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantity.ExtractText(text)
	}
}
