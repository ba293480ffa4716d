// Command briq-bench is the reproducible benchmark harness for the alignment
// hot path. It generates a deterministic corpus workload, checks that the CSR
// fast path and the frozen reference implementation agree byte-for-byte on
// that workload, then measures both sides with testing.Benchmark and writes a
// machine-readable report (BENCH_pipeline.json by default):
//
//   - resolve — full iterative resolution (graph build + walks + rewiring),
//     CSR Resolve vs ReferenceResolve: what the pipeline runs against the
//     reference it must equal.
//   - pipeline — end-to-end Align over the workload, with per-stage latency
//     histograms (classify/filter/resolve/align) from internal/obs.
//   - runtime — corpus throughput (docs/sec) of the internal/runtime worker
//     pool at 1, 2, 4 and 8 workers against the serial AlignAll baseline,
//     gated on the pool output being byte-identical to the serial output.
//     Speedups are bounded by GOMAXPROCS: on a single-core machine every
//     worker count measures the same core plus scheduling overhead, and the
//     report records that honestly rather than extrapolating.
//   - serving — the content-addressed result cache's hit path: corpus
//     throughput of a cache-warm briq.AlignCorpus against the cold
//     (uncached) path, gated on the warm output being byte-identical to the
//     cold output. This is the serving layer's headline number: a hit skips
//     the entire pipeline, so the speedup is typically orders of magnitude.
//   - resolvers — random walks (rwr, the pipeline's resolution step) against
//     the ILP and greedy baselines of internal/experiment behind identical
//     classify/filter stages: gold-standard accuracy on the synthetic corpus
//     and docs/sec per strategy.
//   - classify — the frozen flat-array forest engine and pre-classifier
//     gate against the per-pair pointer-tree reference path: trained
//     ScorePairs cost per document, and cold end-to-end alignment
//     throughput, gated on scores being bit-identical and alignments
//     byte-identical across the workload.
//   - ingest — the streaming ingestion engine behind POST /v1/ingest: cold
//     corpus ingestion (every document aligned) against re-ingestion of the
//     identical corpus (every document reused via its sub-document
//     fingerprint), plus the document reuse rate of a realistic re-crawl
//     that appends one sentence per page, gated on the incremental store
//     answering the search/facts battery identically to a from-scratch
//     ingest of the final corpus.
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

	"briq"
	"briq/internal/core"
	"briq/internal/corpus"
	"briq/internal/document"
	"briq/internal/experiment"
	"briq/internal/filter"
	"briq/internal/graph"
	"briq/internal/ingest"
	"briq/internal/obs"
	"briq/internal/quantsearch"
	brt "briq/internal/runtime"
	"briq/internal/store"
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

	// PipelineAlign is the end-to-end Align cost per document (single
	// implementation — Align always uses the CSR path).
	PipelineAlign side `json:"pipeline_align"`

	// Stages holds the per-stage latency histograms recorded while running
	// the pipeline benchmark, keyed by core stage name (see core.StageNames).
	Stages map[string]obs.HistogramSnapshot `json:"stages"`

	// Runtime is the corpus-throughput scaling of the internal/runtime worker
	// pool over the same workload, gated on pool output == serial output.
	Runtime runtimeReport `json:"runtime"`

	// Serving compares the result cache's hit path against the cold pipeline
	// over the same corpus, gated on warm output == cold output.
	Serving servingReport `json:"serving"`

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

	// Ingest compares cold corpus ingestion against fingerprint-reuse
	// re-ingestion of the identical corpus, gated on the incremental path
	// matching a from-scratch ingest of the final corpus.
	Ingest ingestSection `json:"ingest"`
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

// ingestSection is the streaming-ingestion block of the report. The cold
// side ingests the corpus into a fresh engine (every document goes through
// classify/filter/resolve); the re-ingest side streams the identical corpus
// into a warm engine, so every document is reused off its sub-document
// fingerprint and alignment is skipped entirely. MutatedReuseRate is the
// fraction of documents reused on a realistic re-crawl that appends one
// sentence to one paragraph per page. EquivalentToScratch records the gate:
// the incrementally maintained store must answer the search/facts battery
// identically to an engine that ingested only the final corpus.
type ingestSection struct {
	Pages               int     `json:"pages"`
	Documents           int     `json:"documents"`
	ColdNsPerCorpus     float64 `json:"cold_ns_per_corpus"`
	ColdDocsPerSec      float64 `json:"cold_docs_per_sec"`
	ReingestNsPerCorpus float64 `json:"reingest_ns_per_corpus"`
	ReingestDocsPerSec  float64 `json:"reingest_docs_per_sec"`
	Speedup             float64 `json:"speedup"`
	MutatedReuseRate    float64 `json:"mutated_reuse_rate"`
	EquivalentToScratch bool    `json:"equivalent_to_scratch"`
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

// servingReport is the cache-hit-path section: the cold side aligns the
// corpus through an uncached pipeline; the hit side re-aligns it through a
// pipeline whose cache was warmed by one prior run, so every document is
// served from memory. EquivalentToCold records the byte-identity gate.
type servingReport struct {
	ColdNsPerCorpus  float64 `json:"cold_ns_per_corpus"`
	ColdDocsPerSec   float64 `json:"cold_docs_per_sec"`
	HitNsPerCorpus   float64 `json:"hit_ns_per_corpus"`
	HitDocsPerSec    float64 `json:"hit_docs_per_sec"`
	Speedup          float64 `json:"speedup"`
	EquivalentToCold bool    `json:"equivalent_to_cold"`
	CacheEntries     int64   `json:"cache_entries"`
	CacheBytes       int64   `json:"cache_bytes"`
}

// runtimeScaling is one worker-count measurement of the corpus runtime pool.
type runtimeScaling struct {
	Workers         int     `json:"workers"`
	NsPerCorpus     float64 `json:"ns_per_corpus"`
	DocsPerSec      float64 `json:"docs_per_sec"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// runtimeReport compares the concurrent corpus engine against the serial
// AlignAll baseline. EquivalentToSerial records the determinism gate: the
// pool's AlignCorpus output must be byte-identical to serial AlignAll before
// any throughput number is reported.
type runtimeReport struct {
	SerialNsPerCorpus  float64          `json:"serial_ns_per_corpus"`
	SerialDocsPerSec   float64          `json:"serial_docs_per_sec"`
	EquivalentToSerial bool             `json:"equivalent_to_serial"`
	Scaling            []runtimeScaling `json:"scaling"`
	// Note flags hardware limits that cap the observable speedup, e.g. a
	// single-core machine where all worker counts share one core.
	Note string `json:"note,omitempty"`
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
		fast := graph.Build(cfg, in.doc, in.cands).Resolve()
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
				graph.Build(cfg, in.doc, in.cands).Resolve()
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

	// End-to-end pipeline with per-stage latency recording. The recorder is
	// attached for the measured runs only, so stage histograms describe
	// exactly the benchmarked work. No stage is pre-registered: the workload
	// is already segmented, so the section lists only the stages it observes.
	rec := obs.NewRecorder()
	p.Recorder = rec
	docs := make([]*document.Document, len(inputs))
	for i, in := range inputs {
		docs[i] = in.doc
	}
	rep.PipelineAlign = best(rounds, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Align(docs[i%len(docs)])
		}
	})
	rep.Stages = rec.Snapshot()
	fmt.Printf("pipeline_align: %.0f ns/op  %d allocs/op\n",
		rep.PipelineAlign.NsPerOp, rep.PipelineAlign.AllocsPerOp)

	// Corpus throughput on the concurrent runtime pool. Recording is
	// detached so both sides measure pure alignment work.
	p.Recorder = nil
	rt, err := measureRuntime(rounds, p, docs)
	if err != nil {
		return err
	}
	rep.Runtime = rt

	sv, err := measureServing(rounds, docs)
	if err != nil {
		return err
	}
	rep.Serving = sv

	rep.Resolvers = measureResolvers(rounds, p, c, docs)

	cl, err := measureClassify(rounds, p, c, docs)
	if err != nil {
		return err
	}
	rep.Classify = cl

	ig, err := measureIngest(rounds, seed, pages)
	if err != nil {
		return err
	}
	rep.Ingest = ig

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

// measureRuntime benchmarks corpus throughput: the serial AlignAll baseline,
// then the internal/runtime pool at 1, 2, 4 and 8 workers. The pools reuse
// warm clones across benchmark iterations — the steady-state shape of the
// server's batch path and the experiment harness.
func measureRuntime(rounds int, p *core.Pipeline, docs []*document.Document) (runtimeReport, error) {
	var out runtimeReport

	// Determinism gate first: pooled output must match serial byte for byte.
	serialJSON, err := json.Marshal(p.AlignAll(docs))
	if err != nil {
		return out, err
	}
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		got, err := brt.NewPool(p, brt.Options{Workers: workers}).AlignCorpus(ctx, docs)
		if err != nil {
			return out, fmt.Errorf("runtime gate (workers=%d): %w", workers, err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			return out, err
		}
		if !bytes.Equal(gotJSON, serialJSON) {
			return out, fmt.Errorf("runtime gate (workers=%d): pool output differs from serial AlignAll", workers)
		}
	}
	out.EquivalentToSerial = true
	fmt.Printf("runtime gate: pool output identical to serial AlignAll on %d documents\n", len(docs))

	serial := best(rounds, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.AlignAll(docs)
		}
	})
	out.SerialNsPerCorpus = serial.NsPerOp
	out.SerialDocsPerSec = docsPerSec(len(docs), serial.NsPerOp)

	for _, workers := range []int{1, 2, 4, 8} {
		pool := brt.NewPool(p, brt.Options{Workers: workers})
		s := best(rounds, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pool.AlignCorpus(ctx, docs); err != nil {
					b.Fatal(err)
				}
			}
		})
		row := runtimeScaling{
			Workers:     workers,
			NsPerCorpus: s.NsPerOp,
			DocsPerSec:  docsPerSec(len(docs), s.NsPerOp),
		}
		if s.NsPerOp > 0 {
			row.SpeedupVsSerial = out.SerialNsPerCorpus / s.NsPerOp
		}
		out.Scaling = append(out.Scaling, row)
		fmt.Printf("runtime: workers=%d  %.0f docs/sec  %.2fx vs serial\n",
			workers, row.DocsPerSec, row.SpeedupVsSerial)
	}

	if procs := runtime.GOMAXPROCS(0); procs < 2 {
		out.Note = fmt.Sprintf("GOMAXPROCS=%d: all worker counts share one core; "+
			"speedup vs serial measures scheduling overhead, not parallelism", procs)
		fmt.Println("runtime note:", out.Note)
	}
	return out, nil
}

// measureServing benchmarks the serving layer's cache-hit path: cold corpus
// alignment through an uncached facade pipeline against warm re-alignment
// through a pipeline whose per-document result cache holds the whole corpus.
func measureServing(rounds int, docs []*document.Document) (servingReport, error) {
	var out servingReport
	ctx := context.Background()
	coldP := briq.New()
	warmP := briq.New(briq.WithCache(256 << 20))

	// Byte-identity gate: the cold path, the run that warms the cache, and a
	// fully warm run must all agree before any number is reported.
	coldOut, err := briq.AlignCorpus(ctx, coldP, docs)
	if err != nil {
		return out, err
	}
	coldJSON, err := json.Marshal(coldOut)
	if err != nil {
		return out, err
	}
	for pass, label := range []string{"warming", "warm"} {
		got, err := briq.AlignCorpus(ctx, warmP, docs)
		if err != nil {
			return out, fmt.Errorf("serving gate (%s pass): %w", label, err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			return out, err
		}
		if !bytes.Equal(gotJSON, coldJSON) {
			return out, fmt.Errorf("serving gate (%s pass %d): cached output differs from cold pipeline", label, pass)
		}
	}
	out.EquivalentToCold = true
	fmt.Printf("serving gate: cache-hit output identical to cold pipeline on %d documents\n", len(docs))

	cold := best(rounds, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := briq.AlignCorpus(ctx, coldP, docs); err != nil {
				b.Fatal(err)
			}
		}
	})
	hit := best(rounds, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := briq.AlignCorpus(ctx, warmP, docs); err != nil {
				b.Fatal(err)
			}
		}
	})
	out.ColdNsPerCorpus = cold.NsPerOp
	out.ColdDocsPerSec = docsPerSec(len(docs), cold.NsPerOp)
	out.HitNsPerCorpus = hit.NsPerOp
	out.HitDocsPerSec = docsPerSec(len(docs), hit.NsPerOp)
	if hit.NsPerOp > 0 {
		out.Speedup = cold.NsPerOp / hit.NsPerOp
	}
	counters := warmP.Gate.Counters()
	out.CacheEntries = counters["entries"]
	out.CacheBytes = counters["bytes"]
	fmt.Printf("serving: cold %.0f docs/sec | hit %.0f docs/sec | speedup %.1fx (%d entries, %d bytes cached)\n",
		out.ColdDocsPerSec, out.HitDocsPerSec, out.Speedup, out.CacheEntries, out.CacheBytes)
	return out, nil
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

// measureIngest benchmarks the streaming ingestion engine. Gate first: a
// corpus is ingested cold, every page is re-crawled with one extra sentence,
// and the incrementally maintained store must answer the search/facts
// battery identically to an engine that ingested only the final corpus from
// scratch. Then two measurements over the final corpus: cold ingestion into
// a fresh engine per iteration, and re-ingestion of the byte-identical
// corpus into a warm engine, where every document short-circuits on its
// stored fingerprint.
func measureIngest(rounds int, seed int64, pageCount int) (ingestSection, error) {
	var out ingestSection
	ctx := context.Background()
	pgs := corpus.Generate(corpus.TableLConfig(seed, pageCount)).Pages
	out.Pages = len(pgs)

	newEngine := func() (*ingest.Ingestor, *store.Store, error) {
		st, err := store.Open(store.Options{Fingerprint: "briq-bench-ingest"})
		if err != nil {
			return nil, nil, err
		}
		return ingest.New(core.NewPipeline(), st, ingest.Options{}), st, nil
	}
	ingestCorpus := func(ing *ingest.Ingestor) (reused, realigned int, err error) {
		for _, pg := range pgs {
			res := ing.Page(ctx, pg.ID, pg.HTML())
			if res.Error != "" {
				return 0, 0, fmt.Errorf("ingest %s: %s", pg.ID, res.Error)
			}
			reused += res.Reused
			realigned += res.Realigned
		}
		return reused, realigned, nil
	}
	// snapshot serializes the store's observable serving state — the search
	// battery plus every entity's facts — for the equivalence gate.
	snapshot := func(st *store.Store) ([]byte, error) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, q := range []quantsearch.Query{
			{Op: quantsearch.Above, Value: 0},
			{Op: quantsearch.Below, Value: 1000},
			{Op: quantsearch.Between, Value: 5, Value2: 500},
			{Keywords: []string{"total"}, Op: quantsearch.Above, Value: 0},
		} {
			if err := enc.Encode(st.Search(q)); err != nil {
				return nil, err
			}
		}
		ents := st.Entities()
		if err := enc.Encode(ents); err != nil {
			return nil, err
		}
		for _, e := range ents {
			if err := enc.Encode(st.FactsFor(e)); err != nil {
				return nil, err
			}
		}
		return buf.Bytes(), nil
	}

	// Equivalence gate: cold ingest, re-crawl with one sentence appended per
	// page, then compare against a from-scratch ingest of the final corpus.
	warm, warmStore, err := newEngine()
	if err != nil {
		return out, err
	}
	if _, _, err := ingestCorpus(warm); err != nil {
		return out, fmt.Errorf("ingest gate (cold pass): %w", err)
	}
	for _, pg := range pgs {
		pg.Paras[0] += " A follow-up note was appended on re-crawl."
	}
	reused, realigned, err := ingestCorpus(warm)
	if err != nil {
		return out, fmt.Errorf("ingest gate (mutated pass): %w", err)
	}
	if reused == 0 || realigned == 0 {
		return out, fmt.Errorf("ingest gate: mutated re-crawl reused %d / realigned %d, want both > 0", reused, realigned)
	}
	out.MutatedReuseRate = float64(reused) / float64(reused+realigned)
	scratch, scratchStore, err := newEngine()
	if err != nil {
		return out, err
	}
	if _, docs, err := ingestCorpus(scratch); err != nil {
		return out, fmt.Errorf("ingest gate (scratch pass): %w", err)
	} else {
		out.Documents = docs
	}
	got, err := snapshot(warmStore)
	if err != nil {
		return out, err
	}
	want, err := snapshot(scratchStore)
	if err != nil {
		return out, err
	}
	if !bytes.Equal(got, want) {
		return out, fmt.Errorf("ingest gate: incremental store differs from from-scratch ingest of the final corpus")
	}
	out.EquivalentToScratch = true
	fmt.Printf("ingest gate: incremental state identical to from-scratch on %d pages (%.0f%% reused on re-crawl)\n",
		out.Pages, 100*out.MutatedReuseRate)

	cold := best(rounds, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ing, _, err := newEngine()
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := ingestCorpus(ing); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Re-ingest measures the warm engine over the byte-identical corpus:
	// segmentation and fingerprinting run, alignment and log writes do not.
	reingest := best(rounds, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ingestCorpus(scratch); err != nil {
				b.Fatal(err)
			}
		}
	})
	out.ColdNsPerCorpus = cold.NsPerOp
	out.ColdDocsPerSec = docsPerSec(out.Documents, cold.NsPerOp)
	out.ReingestNsPerCorpus = reingest.NsPerOp
	out.ReingestDocsPerSec = docsPerSec(out.Documents, reingest.NsPerOp)
	if reingest.NsPerOp > 0 {
		out.Speedup = cold.NsPerOp / reingest.NsPerOp
	}
	fmt.Printf("ingest: cold %.0f docs/sec | re-ingest %.0f docs/sec | speedup %.1fx\n",
		out.ColdDocsPerSec, out.ReingestDocsPerSec, out.Speedup)
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
