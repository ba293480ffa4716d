package main

import (
	"time"

	"briq/internal/api"
	"briq/internal/core"
	"briq/internal/obs"
)

// metrics aggregates everything GET /metrics exposes. Counter names are fixed
// at construction and the pipeline stages are pre-registered, so the snapshot
// schema is identical on a cold server and under load — dashboards key on
// field names, and the golden schema test locks them in.
type metrics struct {
	start    time.Time
	requests *obs.CounterSet // per-endpoint request counts
	errors   *obs.CounterSet // responses by failure class
	batch    *obs.CounterSet // /align/batch fan-out volume
	ingest   *obs.CounterSet // /ingest streaming volume and reuse split
	stages   *obs.Recorder   // pipeline stage latencies (shared with core.Pipeline)
	handlers *obs.Recorder   // whole-request latency per endpoint
}

func newMetrics() *metrics {
	routes := api.RouteNames()
	return &metrics{
		start:    time.Now(),
		requests: obs.NewCounterSet(append(routes, "total")...),
		errors:   obs.NewCounterSet("http_4xx", "http_5xx", "panics"),
		batch:    obs.NewCounterSet("pages", "documents", "alignments"),
		ingest:   obs.NewCounterSet("pages", "documents", "reused", "realigned", "retracted", "page_errors"),
		stages:   obs.NewRecorder(core.StageNames()...),
		handlers: obs.NewRecorder(routes...),
	}
}

// snapshot is the GET /metrics response body. Changing its shape breaks the
// golden schema test on purpose: update testdata/metrics_schema.golden in the
// same commit as the dashboards that read it.
//
// The stages section covers every alignment the server ran: the align
// handlers, the batch clones and the ingestor's clones all record into
// m.stages, the pipeline's Recorder.
func (m *metrics) snapshot() map[string]any {
	return map[string]any{
		"uptime_seconds": time.Since(m.start).Seconds(),
		"requests":       m.requests.Snapshot(),
		"errors":         m.errors.Snapshot(),
		"batch":          m.batch.Snapshot(),
		"ingest":         m.ingest.Snapshot(),
		"stages":         m.stages.Snapshot(),
		"handlers":       m.handlers.Snapshot(),
	}
}
