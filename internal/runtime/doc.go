// Package runtime fans a corpus of independent documents out over cores:
// AlignPerDoc and AlignCorpus each start up to a given number of goroutines,
// wait for them and return, with cooperative context cancellation at
// pipeline phase boundaries.
//
// # Why clones
//
// core.Pipeline is safe for concurrent Align calls, but sharing one instance
// across goroutines forfeits reusable scratch: the per-document candidate
// slice and the classify batch matrices must be freshly allocated when anyone
// might race on them. A clone (core.Pipeline.Clone) shares every model
// read-only and owns that scratch, so each goroutine of a call aligns on its
// own clone and its buffers stay warm across the pages it takes. Clones
// record stage latencies into the pipeline's own Recorder, the one every
// /v1/align handler goroutine already shares, so a corpus run needs no
// recorder of its own and nothing to merge afterwards.
//
// # Dataflow
//
//	pages of docs[0..n) ◀── next page ──┬── goroutine₁ (clone₁) ─┐
//	                                    ├── goroutine₂ (clone₂) ─┼─▶ perDoc[i] ──▶ AlignPerDoc / AlignCorpus
//	                                    └── goroutineₖ (cloneₖ) ─┘
//
// The unit of work is a page: a run of consecutive documents with one
// PageID. Each goroutine claims the next unaligned page, aligns its
// documents in order through one feature.Tables
// (core.Pipeline.AlignPageContext), so the page's tables are prepared once,
// and writes each result at its document's index: no channel or reorder
// buffer is needed, and a call holds at most k pages in flight. A call with
// one page aligns on one goroutine. Cancellation is observed between the
// classify/filter/resolve phases inside a document (core.AlignContext), so
// a cancelled run stops within one pipeline phase per goroutine.
//
// # Consuming results
//
// AlignPerDoc keeps each document's alignments at its submitted index — the
// shape the serving layer's per-document cache and ingestion need.
// AlignCorpus flattens them and applies core.SortAlignments, making the
// parallel output byte-for-byte identical to the serial
// core.Pipeline.AlignAll (asserted in TestAlignCorpusDeterministic). Its
// throughput is measured where it is served, end to end by the benchmark in
// bench/ (make bench-e2e, committed as BENCH_e2e.json). This package is the
// only place alignment runs in parallel: package core aligns one document at
// a time, and package graph walks a document's random walks one after
// another.
package runtime
