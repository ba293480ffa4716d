// Command briq-bench measures the production kernels against the reference
// oracles they must equal, and the resolver quality rows. It generates a
// deterministic corpus workload, checks that each fast path and its frozen
// reference agree on that workload, then measures both sides with
// testing.Benchmark and writes a machine-readable report
// (BENCH_pipeline.json by default):
//
//   - resolve — full iterative resolution (graph build + walks + rewiring),
//     CSR Resolve vs ReferenceResolve: what the pipeline runs against the
//     reference it must equal.
//   - resolvers — random walks (rwr, the pipeline's resolution step) against
//     the ILP and greedy baselines of internal/experiment behind identical
//     classify/filter stages: gold-standard accuracy on the synthetic corpus
//     and docs/sec per strategy.
//   - classify — the frozen flat-array forest engine and pre-classifier
//     gate against the per-pair pointer-tree reference path: trained
//     ScorePairs cost per document, and cold end-to-end alignment
//     throughput, gated on scores being bit-identical and alignments
//     byte-identical across the workload.
//
// The served paths (cold and cached alignment, ingestion, search) are
// measured end to end over HTTP by the benchmark in bench/, whose results
// make bench-e2e commits as BENCH_e2e.json.
//
// Usage:
//
//	go run ./cmd/briq-bench [-seed 42] [-pages 10] [-rounds 3] [-out BENCH_pipeline.json]
//
// Each benchmark runs -rounds times and the report keeps the fastest round
// (minimum ns/op), which suppresses scheduler noise on small machines.
// Allocation counts are exact and stable across rounds.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/experiment"
	"briq/internal/filter"
	"briq/internal/graph"
	"briq/internal/tagger"
)

// resolveInput is one document's resolution-stage input: the exact
// (document, kept candidates) pair the graph stage sees in production, after
// real classifier scoring and adaptive filtering.
type resolveInput struct {
	doc   *document.Document
	cands []filter.Candidate
}

// side is one measured implementation of a benchmark.
type side struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// comparison pairs the CSR fast path with the frozen reference and the
// derived ratios. Speedup is reference ns/op over CSR ns/op (higher is
// better); AllocsRatio is CSR allocs/op over reference allocs/op (lower is
// better).
type comparison struct {
	CSR         side    `json:"csr"`
	Reference   side    `json:"reference"`
	Speedup     float64 `json:"speedup"`
	AllocsRatio float64 `json:"allocs_ratio"`
}

type workload struct {
	Seed          int64 `json:"seed"`
	Pages         int   `json:"pages"`
	Documents     int   `json:"documents"`
	TextMentions  int   `json:"text_mentions"`
	TableMentions int   `json:"table_mentions"`
	Candidates    int   `json:"candidates"` // kept by the filter stage
}

type equivalence struct {
	DocumentsChecked int  `json:"documents_checked"`
	Identical        bool `json:"identical"`
}

type report struct {
	GeneratedAt string      `json:"generated_at"`
	GoMaxProcs  int         `json:"gomaxprocs"`
	Rounds      int         `json:"rounds"`
	Machine     machineInfo `json:"machine"`

	Workload workload `json:"workload"`

	// Equivalence records the pre-benchmark gate: every workload document's
	// CSR Resolve output was compared against ReferenceResolve; the harness
	// refuses to emit numbers for a fast path that changes results.
	Equivalence equivalence `json:"equivalence"`

	// Benchmarks holds the CSR-vs-reference comparisons, keyed by benchmark
	// name ("resolve").
	Benchmarks map[string]comparison `json:"benchmarks"`

	// Resolvers compares random walks (Algorithm 1) with the ILP and greedy
	// baselines behind identical classify/filter stages: gold-standard
	// accuracy on the synthetic corpus and corpus alignment throughput per
	// strategy.
	Resolvers resolverSection `json:"resolvers"`

	// Classify compares the frozen flat-array classify engine (batched
	// scoring + pre-classifier gate) against the per-pair pointer-tree
	// reference path, gated on bit-identical scores and byte-identical
	// alignments across the workload.
	Classify classifySection `json:"classify"`
}

// machineInfo records the hardware and toolchain a report was measured on,
// so numbers from different reports are only compared like for like.
type machineInfo struct {
	CPU       string `json:"cpu"` // model name from /proc/cpuinfo; empty where unavailable
	NumCPU    int    `json:"num_cpu"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
}

// currentMachine describes the machine the harness runs on.
func currentMachine() machineInfo {
	m := machineInfo{
		NumCPU:    runtime.NumCPU(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		GoVersion: runtime.Version(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				m.CPU = strings.TrimSpace(value)
				break
			}
		}
	}
	return m
}

// classifySection is the classification-engine block of the report. The two
// gates run before any number: ScoresBitIdentical asserts the batched frozen
// engine reproduces the reference classifier's probability for every
// mention×candidate pair bit for bit (with a forest trained on the workload
// corpus), and DecisionsIdentical asserts the gated align path's output is
// byte-identical to the ungated reference path's.
type classifySection struct {
	DocumentsChecked int `json:"documents_checked"`
	PairsChecked     int `json:"pairs_checked"`
	// The pre-classifier gate skips PairsGatedUnit + PairsGatedTag pairs:
	// PairsGatedUnit are unit-incompatible, PairsGatedTag the remaining
	// virtual-mention pairs whose aggregation differs from the tagger's
	// prediction (filter.UnitPruned and filter.TagPruned, as in core).
	PairsGatedUnit     int  `json:"pairs_gated_unit"`
	PairsGatedTag      int  `json:"pairs_gated_tag"`
	ScoresBitIdentical bool `json:"scores_bit_identical"`
	DecisionsIdentical bool `json:"decisions_identical"`

	// TrainedScorePairs: the classify stage alone with a trained forest, per
	// document — frozen batch engine (csr side) vs pointer-tree walk per pair
	// (reference side).
	TrainedScorePairs comparison `json:"trained_score_pairs"`

	// Cold end-to-end alignment throughput of the default pipeline: the
	// engine path (batch + unit and tag gates + lazy table-mention
	// preparation) against the in-run reference path (pointer-tree classify,
	// no gate) over the same corpus. The reference shares the per-mention
	// feature hoists, so ColdSpeedup isolates the batch engine and the gate.
	EngineColdNsPerCorpus    float64 `json:"engine_cold_ns_per_corpus"`
	EngineColdDocsPerSec     float64 `json:"engine_cold_docs_per_sec"`
	ReferenceColdNsPerCorpus float64 `json:"reference_cold_ns_per_corpus"`
	ReferenceColdDocsPerSec  float64 `json:"reference_cold_docs_per_sec"`
	ColdSpeedup              float64 `json:"cold_speedup"`
}

// resolverSection is the strategy-comparison block of the report.
type resolverSection struct {
	Strategies []experiment.ResolverComparison `json:"strategies"`
}

func main() {
	seed := flag.Int64("seed", 42, "corpus generator seed")
	pages := flag.Int("pages", 10, "corpus pages to generate")
	rounds := flag.Int("rounds", 3, "benchmark rounds; the fastest is reported")
	out := flag.String("out", "BENCH_pipeline.json", "report output path")
	flag.Parse()

	if err := run(*seed, *pages, *rounds, *out); err != nil {
		fmt.Fprintln(os.Stderr, "briq-bench:", err)
		os.Exit(1)
	}
}

func run(seed int64, pages, rounds int, out string) error {
	if rounds < 1 {
		rounds = 1
	}

	// Workload: run the real first two pipeline stages over a generated
	// corpus so the resolution benchmarks see production-shaped inputs.
	c := corpus.Generate(corpus.TableLConfig(seed, pages))
	p := core.NewPipeline()
	cfg := p.GraphConfig
	ctx := context.Background()

	var rep report
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.Machine = currentMachine()
	rep.Rounds = rounds
	rep.Workload = workload{Seed: seed, Pages: pages}
	rep.Benchmarks = make(map[string]comparison)

	var inputs []resolveInput
	for _, doc := range c.Docs {
		cands := p.ScorePairs(doc)
		filtered := filter.Apply(p.FilterConfig, doc, p.Tagger, cands)
		rep.Workload.TextMentions += len(doc.TextMentions)
		rep.Workload.TableMentions += len(doc.TableMentions)
		if len(filtered.Kept) == 0 {
			continue
		}
		inputs = append(inputs, resolveInput{doc, filtered.Kept})
		rep.Workload.Candidates += len(filtered.Kept)
	}
	rep.Workload.Documents = len(inputs)
	if len(inputs) == 0 {
		return fmt.Errorf("seed %d produced no documents with candidates", seed)
	}
	fmt.Printf("workload: seed=%d pages=%d documents=%d candidates=%d\n",
		seed, pages, len(inputs), rep.Workload.Candidates)

	// Equivalence gate: the fast path must reproduce the reference exactly
	// on every workload document before any number is reported.
	for _, in := range inputs {
		fast, err := graph.Build(cfg, in.doc, in.cands).Resolve(ctx)
		if err != nil {
			return fmt.Errorf("doc %s: resolve: %w", in.doc.ID, err)
		}
		ref := graph.Build(cfg, in.doc, in.cands).ReferenceResolve()
		if len(fast) != len(ref) {
			return fmt.Errorf("doc %s: CSR produced %d alignments, reference %d", in.doc.ID, len(fast), len(ref))
		}
		for i := range fast {
			if fast[i] != ref[i] {
				return fmt.Errorf("doc %s alignment %d: CSR %+v, reference %+v", in.doc.ID, i, fast[i], ref[i])
			}
		}
	}
	rep.Equivalence = equivalence{DocumentsChecked: len(inputs), Identical: true}
	fmt.Printf("equivalence: CSR Resolve identical to reference on %d documents\n", len(inputs))

	// Full resolution: graph build + iterative walks + rewiring, per document.
	rep.Benchmarks["resolve"] = compare(rounds,
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := inputs[i%len(inputs)]
				_, _ = graph.Build(cfg, in.doc, in.cands).Resolve(ctx) // background ctx: cannot fail
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in := inputs[i%len(inputs)]
				graph.Build(cfg, in.doc, in.cands).ReferenceResolve()
			}
		})
	printComparison("resolve", rep.Benchmarks["resolve"])

	docs := make([]*document.Document, len(inputs))
	for i, in := range inputs {
		docs[i] = in.doc
	}
	rep.Resolvers = measureResolvers(rounds, p, c, docs)

	cl, err := measureClassify(rounds, p, c, docs)
	if err != nil {
		return err
	}
	rep.Classify = cl

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

// measureResolvers compares random walks against the ILP and greedy
// baselines over the bench workload, all behind the same classify/filter
// stages: gold-standard accuracy (precision/recall/F1 against the synthetic
// corpus's ground truth) and serial corpus throughput per strategy.
func measureResolvers(rounds int, base *core.Pipeline, c *corpus.Corpus, docs []*document.Document) resolverSection {
	var out resolverSection
	for _, sys := range experiment.ResolverSystems(base) {
		eval := experiment.Evaluate(sys, c, docs)
		s := best(rounds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, doc := range docs {
					sys.Predict(doc)
				}
			}
		})
		row := experiment.ResolverRow(sys, eval, docsPerSec(len(docs), s.NsPerOp))
		out.Strategies = append(out.Strategies, row)
		fmt.Printf("resolver %-6s  P=%.2f R=%.2f F1=%.2f  %.0f docs/sec\n",
			row.Resolver, row.Precision, row.Recall, row.F1, row.DocsPerSec)
	}
	return out
}

// measureClassify benchmarks the classify rewrite. Gates first: with a
// forest trained on the workload corpus, the frozen batch engine's ScorePairs
// scores must be bit-identical to the pointer-tree reference on every pair of
// every document, and the gated align path's output byte-identical to the
// ungated reference path's. Then two measurements: the trained classify stage
// per document (batch engine vs per-pair reference), and cold end-to-end
// alignment throughput of the default pipeline under both classify paths.
func measureClassify(rounds int, base *core.Pipeline, c *corpus.Corpus, docs []*document.Document) (classifySection, error) {
	var out classifySection

	// A classifier trained on the bench corpus, so the frozen engine walks
	// production-shaped trees rather than toy ones.
	split := experiment.SplitCorpus(c, 7)
	trained, err := experiment.Train(c, split.Train, experiment.DefaultTrainOptions(3))
	if err != nil {
		return out, fmt.Errorf("classify: training on the workload corpus: %w", err)
	}
	tp := experiment.NewBriQ(trained).P
	tref := *tp
	tref.ReferenceClassify = true
	tref.NoClassifyGate = true

	// Gate 1: bit-identical scores on the full ungated pair space.
	for _, doc := range docs {
		got := tp.ScorePairs(doc)
		want := tref.ScorePairs(doc)
		if len(got) != len(want) {
			return out, fmt.Errorf("classify gate: doc %s: %d pairs batched, %d reference", doc.ID, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				return out, fmt.Errorf("classify gate: doc %s pair (%d,%d): batched score %v != reference %v",
					doc.ID, got[i].Text, got[i].Table, got[i].Score, want[i].Score)
			}
		}
		out.PairsChecked += len(got)
	}
	out.ScoresBitIdentical = true

	// Gate 2: byte-identical alignments from the gated engine path and the
	// ungated reference path; count the pairs the gate skips along the way.
	for _, doc := range docs {
		gotJSON, err := json.Marshal(tp.Align(doc))
		if err != nil {
			return out, err
		}
		wantJSON, err := json.Marshal(tref.Align(doc))
		if err != nil {
			return out, err
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			return out, fmt.Errorf("classify gate: doc %s: gated engine alignments differ from reference", doc.ID)
		}
		tags := tagger.TagAll(tp.Tagger, doc)
		for xi := range doc.TextMentions {
			x := &doc.TextMentions[xi]
			for _, tm := range doc.TableMentions {
				switch {
				case filter.UnitPruned(x, tm):
					out.PairsGatedUnit++
				case filter.TagPruned(tm, tags[xi]):
					out.PairsGatedTag++
				}
			}
		}
	}
	out.DecisionsIdentical = true
	out.DocumentsChecked = len(docs)
	fmt.Printf("classify gate: %d pairs bit-identical, alignments identical on %d documents (%d pairs gated on units, %d on tags)\n",
		out.PairsChecked, out.DocumentsChecked, out.PairsGatedUnit, out.PairsGatedTag)

	// Trained classify stage alone, per document.
	out.TrainedScorePairs = compare(rounds,
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tp.ScorePairs(docs[i%len(docs)])
			}
		},
		func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tref.ScorePairs(docs[i%len(docs)])
			}
		})
	printComparison("classify_trained_score_pairs", out.TrainedScorePairs)

	// Cold end-to-end alignment under both classify paths.
	ref := *base
	ref.ReferenceClassify = true
	ref.NoClassifyGate = true
	engine := best(rounds, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base.AlignAll(docs)
		}
	})
	reference := best(rounds, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref.AlignAll(docs)
		}
	})
	out.EngineColdNsPerCorpus = engine.NsPerOp
	out.EngineColdDocsPerSec = docsPerSec(len(docs), engine.NsPerOp)
	out.ReferenceColdNsPerCorpus = reference.NsPerOp
	out.ReferenceColdDocsPerSec = docsPerSec(len(docs), reference.NsPerOp)
	if engine.NsPerOp > 0 {
		out.ColdSpeedup = reference.NsPerOp / engine.NsPerOp
	}
	fmt.Printf("classify: engine cold %.0f docs/sec | reference cold %.0f docs/sec | %.2fx\n",
		out.EngineColdDocsPerSec, out.ReferenceColdDocsPerSec, out.ColdSpeedup)
	return out, nil
}

// docsPerSec converts a per-corpus latency into document throughput.
func docsPerSec(docs int, nsPerCorpus float64) float64 {
	if nsPerCorpus <= 0 {
		return 0
	}
	return float64(docs) / (nsPerCorpus / 1e9)
}

// compare benchmarks the CSR and reference sides of one comparison and
// derives the ratios.
func compare(rounds int, csr, ref func(b *testing.B)) comparison {
	c := comparison{CSR: best(rounds, csr), Reference: best(rounds, ref)}
	if c.CSR.NsPerOp > 0 {
		c.Speedup = c.Reference.NsPerOp / c.CSR.NsPerOp
	}
	if c.Reference.AllocsPerOp > 0 {
		c.AllocsRatio = float64(c.CSR.AllocsPerOp) / float64(c.Reference.AllocsPerOp)
	}
	return c
}

// best runs fn through testing.Benchmark `rounds` times and keeps the round
// with the lowest ns/op — the least scheduler-disturbed measurement.
func best(rounds int, fn func(b *testing.B)) side {
	var out side
	for r := 0; r < rounds; r++ {
		res := testing.Benchmark(fn)
		s := side{
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Iterations:  res.N,
		}
		if r == 0 || s.NsPerOp < out.NsPerOp {
			out = s
		}
	}
	return out
}

func printComparison(name string, c comparison) {
	fmt.Printf("%s: csr %.0f ns/op %d allocs/op | reference %.0f ns/op %d allocs/op | speedup %.2fx\n",
		name, c.CSR.NsPerOp, c.CSR.AllocsPerOp, c.Reference.NsPerOp, c.Reference.AllocsPerOp, c.Speedup)
}
