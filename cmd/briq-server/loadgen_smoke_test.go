package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"briq"
	"briq/internal/corpus"
	"briq/internal/loadgen"
)

// loadgenPages renders a tiny deterministic corpus into the page form the
// harness posts — the same pages corpusgen would write to disk.
func loadgenPages(t *testing.T, n int) []loadgen.Page {
	t.Helper()
	cfg := corpus.TableSConfig(42)
	cfg.Pages = n
	c := corpus.Generate(cfg)
	pages := make([]loadgen.Page, 0, len(c.Pages))
	for _, pg := range c.Pages {
		pages = append(pages, loadgen.Page{ID: pg.ID, HTML: pg.HTML()})
	}
	return pages
}

// TestLoadgenSmokeHitRate drives a real briq-server (full middleware stack,
// result cache enabled) through the open-loop harness: zipf-skewed repeats
// of a tiny corpus must produce cache hits, and the scraped hit rate must
// land in the report.
func TestLoadgenSmokeHitRate(t *testing.T) {
	srv := newServer(briq.New(briq.WithCache(8<<20), briq.WithWorkers(2)), serverOptions{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:  ts.URL,
		QPS:      120,
		Duration: time.Second,
		Seed:     11,
		Mix:      loadgen.Mix{Align: 1},
	}, loadgenPages(t, 6))
	if err != nil {
		t.Fatal(err)
	}

	if rep.Requests.OK == 0 {
		t.Fatalf("no successful aligns: %+v", rep.Requests)
	}
	if !rep.Serving.ScrapeOK {
		t.Fatal("metrics scrape failed against the real server")
	}
	if rep.Serving.Hits == 0 || rep.Serving.CacheHitRate <= 0 {
		t.Errorf("zipf repeats produced no cache hits: %+v", rep.Serving)
	}
	if rep.LatencyMs.Overall.Count != rep.Requests.Sent {
		t.Errorf("latency count %d != sent %d", rep.LatencyMs.Overall.Count, rep.Requests.Sent)
	}
}

// TestLoadgenSmokeShedAccounting forces overload — admission bounded to one
// in-flight computation, slow batch requests arriving faster than they
// drain — and cross-checks the client's 429/504 counts against the server's
// own shed counters: every shed the server records must come back as a
// counted 429 (or 504) in the report, and the rates must derive from those
// counts.
func TestLoadgenSmokeShedAccounting(t *testing.T) {
	srv := newServer(briq.New(briq.WithMaxInFlight(1), briq.WithWorkers(1)), serverOptions{})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:    ts.URL,
		QPS:        60,
		Duration:   1500 * time.Millisecond,
		Seed:       13,
		Mix:        loadgen.Mix{Batch: 1},
		BatchPages: 6,
	}, loadgenPages(t, 6))
	if err != nil {
		t.Fatal(err)
	}

	if rep.Requests.Shed429 == 0 {
		t.Fatalf("forced overload shed nothing: %+v", rep.Requests)
	}
	if !rep.Serving.ScrapeOK {
		t.Fatal("metrics scrape failed against the real server")
	}
	if rep.Serving.ShedOverloaded != rep.Requests.Shed429 {
		t.Errorf("server shed_overloaded = %d, client 429s = %d — accounting mismatch",
			rep.Serving.ShedOverloaded, rep.Requests.Shed429)
	}
	if rep.Serving.ShedDeadline != rep.Requests.Deadline504 {
		t.Errorf("server shed_deadline = %d, client 504s = %d — accounting mismatch",
			rep.Serving.ShedDeadline, rep.Requests.Deadline504)
	}
	wantRate := float64(rep.Requests.Shed429) / float64(rep.Requests.Sent)
	if rep.Rates.Shed429 != wantRate {
		t.Errorf("shed rate = %v, want %v", rep.Rates.Shed429, wantRate)
	}
}
