// Command briq-server exposes quantity alignment as a production HTTP
// service.
//
//	briq-server [-addr :8080] [-trained] [-seed N] [-model file] [-workers N]
//	            [-cache-bytes N] [-max-inflight N] [-store dir]
//	            [-request-timeout 30s] [-shutdown-timeout 15s] [-pprof] [-quiet]
//
// Endpoints (served under /v1 only; a bare unversioned path answers 404):
//
//	POST /v1/align         HTML page body → JSON alignments
//	POST /v1/align/batch   JSON {"pages": [{"id", "html"}]} → per-page alignments,
//	                       fanned out over the pipeline worker pool
//	POST /v1/summarize     HTML page body → JSON table-aware summary
//	GET  /v1/search        quantity query (q=… natural language, or structured
//	                       op/value/value2/unit/keywords) over every alignment
//	                       this server has produced, paginated via cursor/limit
//	GET  /v1/facts         entity=… → that entity's aligned quantities,
//	                       confidence descending, paginated via cursor/limit
//	GET  /v1/metrics       JSON snapshot: request/error counters, per-stage and
//	                       per-endpoint latency histograms, batch volume, the
//	                       serving layer (cache hits/misses/evictions, sheds),
//	                       the aligned-corpus store, and the model fingerprint
//	GET  /v1/healthz       liveness probe
//	GET  /debug/pprof/     runtime profiles (only with -pprof)
//
// -store DIR persists every successful alignment to an append-only log in DIR
// and replays it on boot: the serve cache starts warm, and /v1/search and
// /v1/facts answer over the whole stored corpus, not just this process's
// lifetime. The directory is bound to the model fingerprint — pointing a
// differently-trained server at it refuses to start. Without -store, the
// search index and facts view still work but cover only the current process.
//
// With -model, the server boots from a briq-train bundle instead of training;
// a replica fleet booted from one bundle shares a model fingerprint, which is
// what lets briq-gateway shard the content-addressed cache across it.
//
// The alignment endpoints answer with a uniform JSON envelope
// {"result": …, "error": null} / {"result": null, "error": {"code", "message"}}
// with a stable error-code table (422 no_tables/no_mentions, 429 overloaded
// with Retry-After, 504 deadline, …).
//
// -cache-bytes bounds a content-addressed result cache: re-POSTing a page (or
// a batch document) already aligned under the same models is served from
// memory, byte-identical to a fresh run, and identical concurrent requests
// coalesce into one pipeline run. -max-inflight bounds concurrently admitted
// alignment computations; excess load beyond a small wait queue is shed with
// 429 instead of piling up.
//
// The server runs with read/write/idle timeouts and a per-request context
// deadline. On SIGINT or SIGTERM it stops accepting connections, drains
// in-flight requests for up to -shutdown-timeout, then exits.
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
	"syscall"
	"time"

	"briq"
	"briq/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("briq-server: ")

	addr := flag.String("addr", ":8080", "listen address")
	trained := flag.Bool("trained", false, "train models on a synthetic corpus at startup")
	seed := flag.Int64("seed", 42, "training seed (with -trained)")
	model := flag.String("model", "", "load models from a briq-train file instead of training (replica fleet boot)")
	workers := flag.Int("workers", 0, "alignment worker pool width for /v1/align/batch (0 = GOMAXPROCS)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "content-addressed result cache budget in bytes (0 disables)")
	storeDir := flag.String("store", "", "persist aligned documents to this directory and replay them on boot")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently admitted alignment computations (0 = unbounded)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 disables)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 15*time.Second, "drain window on SIGINT/SIGTERM")
	enablePprof := flag.Bool("pprof", false, "serve /debug/pprof/ profiles")
	quiet := flag.Bool("quiet", false, "disable per-request access logging")
	flag.Parse()

	var pipelineOpts []briq.Option
	if *workers > 0 {
		pipelineOpts = append(pipelineOpts, briq.WithWorkers(*workers))
	}
	if *cacheBytes > 0 {
		pipelineOpts = append(pipelineOpts, briq.WithCache(*cacheBytes))
	}
	if *maxInFlight > 0 {
		pipelineOpts = append(pipelineOpts, briq.WithMaxInFlight(*maxInFlight))
	}
	start := time.Now()
	var pipeline *briq.Pipeline
	switch {
	case *model != "":
		// Fleet boot: every replica loads the same briq-train bundle, so the
		// fleet shares one model fingerprint and a gateway can shard the
		// content-addressed cache across it.
		if *trained {
			log.Fatal("-model and -trained are mutually exclusive")
		}
		var err error
		pipeline, err = briq.NewFromModelFile(*model, pipelineOpts...)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded models from %s in %v", *model, time.Since(start).Round(time.Millisecond))
	case *trained:
		pipeline = briq.New(append(pipelineOpts, briq.WithTrainedSeed(*seed))...)
		log.Printf("trained models in %v", time.Since(start).Round(time.Millisecond))
	default:
		pipeline = briq.New(pipelineOpts...)
	}

	opts := serverOptions{
		requestTimeout: *requestTimeout,
		enablePprof:    *enablePprof,
	}
	if !*quiet {
		opts.logger = log.Default()
	}
	if *storeDir != "" {
		opened := time.Now()
		st, err := store.Open(store.Options{
			Dir:         *storeDir,
			Fingerprint: fingerprint(pipeline),
			Gate:        pipeline.Gate,
			Logf:        log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		replay := time.Since(opened)
		c := st.Counters()
		log.Printf("store %s: replayed %d documents, %d cache records (%d bytes, %d lines skipped) in %v (%.0f documents/s)",
			*storeDir, c["warm_documents"], c["warm_cache_records"], c["log_bytes"], c["replay_skipped"],
			replay.Round(time.Millisecond), float64(c["warm_documents"])/replay.Seconds())
		opts.store = st
	}
	srv := newServer(pipeline, opts)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.routes(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	log.Printf("listening on %s (workers=%d, request-timeout=%v, cache-bytes=%d, max-inflight=%d, store=%q, pprof=%v)",
		*addr, *workers, *requestTimeout, *cacheBytes, *maxInFlight, *storeDir, *enablePprof)
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
