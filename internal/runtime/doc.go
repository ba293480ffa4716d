// Package runtime is the corpus-scale concurrent alignment engine: it fans
// documents out over a pool of per-worker pipeline clones with bounded
// channels for backpressure, cooperative context cancellation at pipeline
// phase boundaries, and per-worker observability merged into a pool-level
// snapshot.
//
// # Why a pool of clones
//
// core.Pipeline is safe for concurrent Align calls, but sharing one instance
// across goroutines forfeits two things: reusable scratch (the per-document
// candidate slice must be freshly allocated when anyone might race on it)
// and contention-free latency recording (all workers would hammer one set of
// histograms). A clone (core.Pipeline.Clone) shares every model read-only
// and owns exactly those two pieces of mutable state; the pool gives each
// worker goroutine one clone for its lifetime, so buffers stay warm across
// the documents a worker processes and recording never crosses cores.
//
// # Dataflow
//
//	docs ──feeder──▶ [in, cap=2n] ──▶ worker₁ (clone₁, rec₁) ─┐
//	                              ──▶ worker₂ (clone₂, rec₂) ─┼─▶ [out, cap=2n] ──▶ Stream / AlignCorpus
//	                              ──▶ workerₙ (cloneₙ, recₙ) ─┘
//
// Both channels hold twice the worker count n: a slow consumer parks the
// workers, full input parks the feeder. Cancellation is observed at every arrow above plus
// between the classify/filter/resolve phases inside a document
// (core.AlignContext), so a cancelled corpus run stops within one pipeline
// phase per worker.
//
// # Consuming results
//
// Stream yields results in completion order, each tagged with its submission
// index — the shape for pipelines that post-process per document.
// AlignCorpus is the ordered-batch collector: it restores submission order
// and applies core.SortAlignments, making the parallel output byte-for-byte
// identical to the serial core.Pipeline.AlignAll (asserted in
// TestAlignCorpusDeterministic). Its throughput is measured where it is
// served, end to end by the benchmark in bench/ (make bench-e2e, committed
// as BENCH_e2e.json). This pool is the only place alignment runs in parallel:
// package core aligns one document at a time, and package graph walks a
// document's random walks one after another.
package runtime
