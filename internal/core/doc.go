// Package core wires the BriQ stages of Fig. 2 into an end-to-end pipeline:
// table-text extraction (package document) → mention-pair classification
// (packages feature + forest) → adaptive filtering (packages tagger +
// filter) → global resolution (package graph). AlignAll aligns a corpus
// serially; corpus-scale runs (Table VIII) fan documents out over worker
// clones in package runtime, which must reproduce AlignAll byte for byte.
//
// # Stages and instrumentation
//
// Align reports per-stage latency under the names returned by StageNames —
// StageSegment (page → documents), StageClassify (ScorePairs), StageFilter
// (filter.Apply), StageResolve (graph build + random walks) and StageAlign
// (the whole per-document run) — to the pipeline's obs.Recorder when one is
// set. A nil Recorder is a valid no-op, so instrumentation costs nothing
// when unused. Candidates runs the classify and filter stages alone, with the
// same recording; random walks (Algorithm 1) are the only resolution step,
// and the ILP and greedy baselines in internal/experiment resolve the same
// candidates for comparison.
//
// StageClassifyGate is the pre-classifier gate inside classify: it tags
// every text mention and builds only the pairs that the filter's
// score-independent rules keep. Tagging used to run inside filter.Apply and
// now reports here, so per layer classify/gate rises while filter (which
// groups only the pairs built) and classify (which extracts no features for
// gated pairs) fall. With NoClassifyGate set, tagging stays in the filter
// stage. cmd/briq-server exposes these histograms on /metrics, and the benchmark in bench/ turns their deltas
// into the per-layer metrics that make bench-e2e commits as BENCH_e2e.json.
//
// # Concurrency contract
//
// A Pipeline is configured once (including Recorder) and is read-only
// afterwards; any number of goroutines may then call Align on it at once.
// Per-document and per-page mutable state (feature caches, the resolution
// graph) lives in values created inside Align and AlignPageContext, never
// on the Pipeline. A Clone owns
// scratch buffers and must be used by one goroutine at a time.
package core
