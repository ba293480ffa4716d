// Package core wires the BriQ stages of Fig. 2 into an end-to-end pipeline:
// table-text extraction (package document) → mention-pair classification
// (packages feature + forest) → adaptive filtering (packages tagger +
// filter) → global resolution (package graph). It also provides a concurrent
// document processor (AlignAll) for corpus-scale throughput runs
// (Table VIII).
//
// # Stages and instrumentation
//
// Align reports per-stage latency under the names returned by StageNames —
// StageSegment (page → documents), StageClassify (ScorePairs), StageFilter
// (filter.Apply), StageResolve (graph build + random walks) and StageAlign
// (the whole per-document run) — to the pipeline's obs.Recorder when one is
// set. A nil Recorder is a valid no-op, so instrumentation costs nothing
// when unused.
//
// StageClassifyGate is the pre-classifier gate inside classify: it tags
// every text mention and marks the pairs the filter drops whatever their
// score. Tagging used to run inside filter.Apply and now reports here, so
// per layer classify/gate rises while filter (and classify, which no longer
// extracts features for gated pairs) falls. With NoClassifyGate set,
// tagging stays in the filter stage. cmd/briq-server exposes these histograms over HTTP and
// cmd/briq-bench writes them into BENCH_pipeline.json.
//
// # Concurrency contract
//
// A Pipeline is configured once (including Recorder) and is read-only
// afterwards; AlignAll then shares it across workers safely. Per-document
// mutable state (feature caches, the resolution graph) lives in values
// created inside Align, never on the Pipeline.
package core
