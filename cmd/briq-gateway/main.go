// Command briq-gateway fronts a fleet of briq-server replicas with a
// consistent-hash router, so the fleet's content-addressed result caches act
// as one sharded cache.
//
//	briq-gateway -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//	             [-addr :8080] [-vnodes 128] [-probe-interval 500ms]
//	             [-fail-threshold 2] [-revive-threshold 2]
//	             [-retry-budget 0.1] [-upstream-timeout 90s]
//	             [-shutdown-timeout 15s]
//
// The gateway exposes the same versioned surface as briq-server — POST
// /v1/align, /v1/align/batch, /v1/summarize, /v1/ingest, GET /v1/search,
// /v1/facts, /v1/metrics, /v1/healthz — so clients, dashboards and the load
// harness point at it unchanged.
//
// Each request is routed by the hash of its content identity — endpoint +
// body for the POST alignment endpoints, endpoint + canonicalized query
// string for the GET read endpoints — so byte-identical requests always land
// on the same replica, keeping that replica's LRU shard (and aligned-corpus
// store) hot on its slice of the key space. Replicas are health-probed and
// ejected/readmitted with hysteresis; 429/504 answers and transport
// failures get one in-budget retry on the ring successor, and out-of-budget
// sheds are surfaced to the client verbatim. GET /v1/metrics merges the
// replicas' snapshots (counters summed, histograms merged) under the
// single-server schema plus a "gateway" section.
//
// Boot the fleet from one briq-train bundle (briq-server -model) so every
// replica shares a model fingerprint; /v1/metrics reports
// model.consistent=false when they diverge.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"briq/internal/gateway"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("briq-gateway: ")

	addr := flag.String("addr", ":8080", "listen address")
	replicas := flag.String("replicas", "", "comma-separated briq-server base URLs (required)")
	vnodes := flag.Int("vnodes", gateway.DefaultVNodes, "virtual nodes per replica on the hash ring")
	probeInterval := flag.Duration("probe-interval", gateway.DefaultProbeInterval, "health-probe period")
	failThreshold := flag.Int("fail-threshold", gateway.DefaultFailThreshold, "consecutive probe failures before ejecting a replica")
	reviveThreshold := flag.Int("revive-threshold", gateway.DefaultReviveThreshold, "consecutive probe successes before readmitting a replica")
	retryBudget := flag.Float64("retry-budget", gateway.DefaultRetryBudgetRatio, "retry tokens accrued per proxied request (negative disables retries)")
	upstreamTimeout := flag.Duration("upstream-timeout", gateway.DefaultUpstreamTimeout, "per-attempt upstream round-trip bound")
	shutdownTimeout := flag.Duration("shutdown-timeout", 15*time.Second, "drain window on SIGINT/SIGTERM")
	flag.Parse()

	if *replicas == "" {
		log.Fatal("-replicas is required")
	}
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	gw, err := gateway.New(gateway.Config{
		Replicas:         urls,
		VNodes:           *vnodes,
		ProbeInterval:    *probeInterval,
		FailThreshold:    *failThreshold,
		ReviveThreshold:  *reviveThreshold,
		RetryBudgetRatio: *retryBudget,
		UpstreamTimeout:  *upstreamTimeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Stop()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Routes(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * *upstreamTimeout,
		IdleTimeout:       120 * time.Second,
	}

	log.Printf("listening on %s, sharding %d replicas (vnodes=%d, probe=%v, retry-budget=%.2f)",
		*addr, len(urls), *vnodes, *probeInterval, *retryBudget)
	if err := serve(httpSrv, *shutdownTimeout); err != nil {
		log.Fatal(err)
	}
	log.Printf("shutdown complete")
}

// serve runs the server until it fails or a termination signal arrives, then
// drains gracefully for up to the given window before forcing connections
// closed.
func serve(srv *http.Server, drain time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	select {
	case err := <-errCh:
		return fmt.Errorf("listen: %w", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("signal received, draining for up to %v", drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			srv.Close()
			return fmt.Errorf("graceful shutdown: %w", err)
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
