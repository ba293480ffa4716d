// Package obs is the stdlib-only observability layer shared by the pipeline,
// the HTTP server and the benchmark harness: lock-free counters, fixed-bucket
// latency histograms with JSON-ready snapshots, and a Recorder that names
// histograms by pipeline stage.
//
// Everything is safe for concurrent use. A nil *Recorder is a valid no-op
// sink, so instrumented code (core.Align and friends) never needs nil checks
// beyond the method receiver — observing into a nil Recorder simply does
// nothing.
//
// HistogramSnapshot is the serialization unit: count, sum/mean/min/max and
// p50/p90/p99 in milliseconds plus the cumulative bucket counts. It backs
// the "stages" section of the briq-server and briq-gateway /metrics
// endpoints; the benchmark in bench/ decodes those snapshots and takes its
// per-layer times from their deltas, which make bench-e2e commits in
// BENCH_e2e.json.
package obs
