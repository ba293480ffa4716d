package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"briq"
	"briq/client"
	"briq/internal/api"
)

// workload is one traffic mix. Each round boots a fresh server on the store
// the workload seeds, runs a fixed amount of work through the measure phase
// and stops the server; the runner does the timing, scraping and /proc
// reads around it.
type workload interface {
	name() string
	// prepare generates the inputs from the seed and builds any store
	// template the rounds boot on. Untimed.
	prepare(ctx context.Context, r *runner) error
	// seedStore fills a fresh round's empty store directory.
	seedStore(dir string) error
	// before runs after boot and before the measured phase: output checks
	// that need the server in its booted state. Untimed.
	before(ctx context.Context, r *runner, s *server, o *roundOut) error
	// measure drives the measured phase. tr is nil on untraced rounds.
	measure(ctx context.Context, s *server, o *roundOut, tr *tracer) error
	// checkDelta checks the server's own record of the measured phase.
	checkDelta(d *phaseDelta, o *roundOut)
	// verify runs on the traced round before the server stops: the checks
	// that compare HTTP output with in-process results.
	verify(ctx context.Context, r *runner, s *server, o *roundOut, pc *pageComponents) error
	// pages are the inputs the component pass samples.
	pages() []page
	// routes are the /metrics handler names of the measured client
	// requests; client/http per-layer metrics cover these.
	routes() []string
}

// roundOut is what one round measured.
type roundOut struct {
	setup      time.Duration
	wall       time.Duration // measured phase
	ops        int           // documents, or reads on search_mixed
	lat        []float64     // the workload's latency samples, ms
	cpu        time.Duration // server user+system CPU over the measured phase
	rssMiB     float64
	logGrowth  int64
	inputBytes int64
	delta      *phaseDelta
	calib      float64 // machine speed just before the boot, calibration units/s

	// Traced rounds only.
	gc           []gcEvent // GC cycles inside the measured phase
	gcFrom       float64   // measured phase, seconds since server start
	gcTo         float64
	genCPU       time.Duration
	rtts         []float64 // every measured client request, ms
	tracedBodies [][]byte  // align_cold: the response body per page

	writeLat   []float64 // search_mixed: writer per-page latency, ms
	writerLate float64   // search_mixed: mean ms the writer ran behind its pace
	reuseRatio float64   // first re-crawl stream: reused / (reused + realigned)
	storeDir   string

	attempted atomic.Int64
	mu        sync.Mutex
	failures  []string
}

func (o *roundOut) op() { o.attempted.Add(1) }

// fail marks one operation failed with the reason.
func (o *roundOut) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

func (o *roundOut) rtt(ms float64) {
	o.mu.Lock()
	o.rtts = append(o.rtts, ms)
	o.mu.Unlock()
}

type runner struct {
	e    *env
	opts options
	sz   sizes
	log  io.Writer

	attempted, failed int64
	failures          []string
	rounds            int                  // rounds booted so far; names their store directories
	calibs            map[string][]float64 // per workload, every round's calibration rate

	pipe *briq.Pipeline
}

// pipeline is the bundle loaded in-process, without recorder or cache, for
// computing expected outputs.
func (r *runner) pipeline() (*briq.Pipeline, error) {
	if r.pipe == nil {
		p, err := briq.NewFromModelFile(r.e.bundle)
		if err != nil {
			return nil, err
		}
		r.pipe = p
	}
	return r.pipe, nil
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "bench: "+format+"\n", args...)
}

// account folds a round's operation counts, failures and calibration into
// the run.
func (r *runner) account(w workload, o *roundOut) {
	r.calibs[w.name()] = append(r.calibs[w.name()], o.calib)
	r.attempted += o.attempted.Load()
	r.failed += int64(len(o.failures))
	for _, f := range o.failures {
		if len(r.failures) < 50 {
			r.failures = append(r.failures, w.name()+": "+f)
		}
	}
}

// round boots a server for w, runs one measured phase and stops the server.
// On a traced round (tr != nil) the server runs with the GC trace and client
// spans are recorded. Given the page components, the round is the final
// traced one: verify runs and the store directory is kept for the
// store-component pass.
func (r *runner) round(ctx context.Context, w workload, tr *tracer, pc *pageComponents) (*roundOut, error) {
	traced := tr != nil
	r.rounds++
	dir := filepath.Join(r.e.runDir, fmt.Sprintf("%s-%d", w.name(), r.rounds))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := w.seedStore(dir); err != nil {
		return nil, err
	}
	calib := calibrate(r.e.nproc, calibTime)
	s, err := startServer(ctx, r.e, dir, traced)
	if err != nil {
		return nil, err
	}
	o := &roundOut{setup: s.setup, storeDir: dir, calib: calib}
	if err := r.drive(ctx, w, s, o, tr, pc); err != nil {
		s.kill()
		return nil, fmt.Errorf("%s: %w", w.name(), err)
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	for _, ev := range gcEvents(s.stderr.String()) {
		if ev.atS >= o.gcFrom && ev.atS <= o.gcTo {
			o.gc = append(o.gc, ev)
		}
	}
	if pc == nil {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (r *runner) drive(ctx context.Context, w workload, s *server, o *roundOut, tr *tracer, pc *pageComponents) error {
	if err := w.before(ctx, r, s, o); err != nil {
		return err
	}
	logPath := filepath.Join(o.storeDir, "corpus.ndjson")
	before, err := s.scrape(ctx)
	if err != nil {
		return err
	}
	cpu0, err := procCPU(s.pid)
	if err != nil {
		return err
	}
	log0 := fileSize(logPath)
	// Every measured phase starts with the generator's heap collected, so the
	// garbage of the calibration and the checks does not collect during it.
	runtime.GC()
	gen0 := selfCPU()
	t0 := time.Now()

	if err := w.measure(ctx, s, o, tr); err != nil {
		return err
	}

	o.wall = time.Since(t0)
	o.genCPU = selfCPU() - gen0
	cpu1, err := procCPU(s.pid)
	if err != nil {
		return err
	}
	o.cpu = cpu1 - cpu0
	o.logGrowth = fileSize(logPath) - log0
	if o.rssMiB, err = procPeakRSS(s.pid); err != nil {
		return err
	}
	after, err := s.scrape(ctx)
	if err != nil {
		return err
	}
	if o.delta, err = deltaOf(after, before); err != nil {
		return fmt.Errorf("/v1/metrics delta: %w", err)
	}
	// Checks every round: nothing shed, nothing lost on the way to disk.
	for _, k := range []string{"shed_overloaded", "shed_deadline"} {
		if n := o.delta.serving[k]; n != 0 {
			o.fail("serving.%s moved by %d", k, n)
		}
	}
	if n := o.delta.store["persist_errors"]; n != 0 {
		o.fail("store.persist_errors moved by %d", n)
	}
	w.checkDelta(o.delta, o)
	// GC events count inside the measured phase only, by the runtime's own
	// clock (seconds since the server process started).
	o.gcFrom, o.gcTo = t0.Sub(s.started).Seconds(), t0.Add(o.wall).Sub(s.started).Seconds()
	if pc != nil {
		return w.verify(ctx, r, s, o, pc)
	}
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// template returns a store directory built by fill against a server booted
// on an empty store, once per build and per content: the key hashes the
// inputs fill sends. Later rounds boot on copies. Building is untimed.
func (r *runner) template(ctx context.Context, kind string, inputs [][]byte, fill func(ctx context.Context, s *server) error) (string, error) {
	h := sha256.New()
	for _, b := range inputs {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	key := fmt.Sprintf("%s-%x", kind, h.Sum(nil)[:8])
	dir := filepath.Join(r.e.cacheDir, "templates", key)
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	r.logf("building store template %s", key)
	s, err := startServer(ctx, r.e, tmp, false)
	if err != nil {
		return "", err
	}
	if err := fill(ctx, s); err != nil {
		s.kill()
		return "", fmt.Errorf("template %s: %w", key, err)
	}
	if err := s.stop(); err != nil {
		return "", err
	}
	return dir, os.Rename(tmp, dir)
}

// copyDir copies the regular files of a flat store directory.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, d := range ents {
		if !d.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, d.Name()), filepath.Join(dst, d.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// closedLoop runs fn(0..n-1) on `clients` goroutines, each taking the next
// index only after its previous call returned, and waits for all of them.
func closedLoop(n, clients int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// call sends one request to a versioned path and reads the whole response.
func call(ctx context.Context, c *client.Client, method, path, ctype string, body []byte) (int, []byte, error) {
	resp, err := c.Do(ctx, method, path, ctype, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// checkEnvelope accepts a 200 answer whose envelope carries a result and no
// error.
func checkEnvelope(status int, body []byte, err error) error {
	if err != nil {
		return err
	}
	var env struct {
		Result json.RawMessage `json:"result"`
		Error  *api.Error      `json:"error"`
	}
	if jerr := json.Unmarshal(body, &env); jerr != nil {
		return fmt.Errorf("status %d, undecodable envelope: %v", status, jerr)
	}
	if status != 200 || env.Error != nil {
		return fmt.Errorf("status %d: %+v", status, env.Error)
	}
	if len(env.Result) == 0 || bytes.Equal(env.Result, []byte("null")) {
		return fmt.Errorf("status 200 without a result")
	}
	return nil
}

// render is the exact response body the server writes for a successful
// result, for byte-for-byte comparison with expected outputs computed
// in-process.
func render(result any) ([]byte, error) {
	b, err := json.MarshalIndent(api.Envelope{Result: result}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
