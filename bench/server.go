package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"briq/client"
	"briq/internal/obs"
)

// maxConns is the most connections the benchmark ever holds to the server.
// The benchmark box has two cores; more client connections than cores would
// measure the scheduler, not the server.
const maxConns = 2

// server is one briq-server process booted for one round.
type server struct {
	cmd     *exec.Cmd
	pid     int
	c       *client.Client
	tr      *http.Transport
	started time.Time
	setup   time.Duration // exec → first 200 from /v1/healthz
	stderr  *lockedBuffer
	exited  chan struct{}
	err     error // Wait's result, valid once exited is closed
}

// lockedBuffer collects the server's output; exec copies into it from its own
// goroutine while the benchmark may read it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// startServer boots briq-server with the production flags (-model, -store,
// -quiet, defaults otherwise) on a free loopback port and waits for its
// first healthy answer. traced turns on the Go runtime's GC trace.
func startServer(ctx context.Context, e *env, storeDir string, traced bool) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	c, err := client.New(addr, client.WithHTTPClient(&http.Client{Transport: tr}))
	if err != nil {
		return nil, err
	}
	s := &server{c: c, tr: tr, stderr: &lockedBuffer{}, exited: make(chan struct{})}
	s.cmd = exec.Command(e.serverBin, "-addr", addr, "-model", e.bundle, "-store", storeDir, "-quiet")
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(e.nproc))
	if traced {
		s.cmd.Env = append(s.cmd.Env, "GODEBUG=gctrace=1")
	}
	s.cmd.Stdout, s.cmd.Stderr = s.stderr, s.stderr

	start := time.Now()
	s.started = start
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start briq-server: %w", err)
	}
	s.pid = s.cmd.Process.Pid
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	// Poll fast: setup_s is measured to the first healthy answer, so the poll
	// interval bounds its resolution.
	deadline := time.Now().Add(90 * time.Second)
	for {
		pctx, cancel := context.WithTimeout(ctx, time.Second)
		err := c.Healthz(pctx)
		cancel()
		if err == nil {
			s.setup = time.Since(start)
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("briq-server exited during boot (%v): %s", s.err, tail(s.stderr.String()))
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("briq-server not healthy after 90s: %v: %s", err, tail(s.stderr.String()))
		}
	}
}

// stop shuts the server down gracefully (SIGTERM, the production drain path)
// and waits for it to exit. A non-zero exit is an error.
func (s *server) stop() error {
	s.tr.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.kill()
		return err
	}
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("briq-server did not drain within 30s")
	}
	if s.err != nil {
		return fmt.Errorf("briq-server exit: %v: %s", s.err, tail(s.stderr.String()))
	}
	return nil
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.exited
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func tail(s string) string {
	const n = 2000
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// scrape is one GET /v1/metrics, decoded into the sections the benchmark
// reads.
type scrape struct {
	Stages   map[string]obs.HistogramSnapshot `json:"stages"`
	Handlers map[string]obs.HistogramSnapshot `json:"handlers"`
	Serving  map[string]int64                 `json:"serving"`
	Store    map[string]int64                 `json:"store"`
}

func (s *server) scrape(ctx context.Context) (*scrape, error) {
	m, err := s.c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(m.Raw)
	if err != nil {
		return nil, err
	}
	var out scrape
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("decode /v1/metrics: %w", err)
	}
	return &out, nil
}

// gauges are the /metrics fields of the serving and store sections that may
// shrink between two scrapes; every other field is a counter, and a phase
// delta that shrinks a counter did not come from one process's window.
var gauges = map[string]bool{
	"bytes": true, "capacity_bytes": true, "entries": true, "in_flight": true,
	"max_in_flight": true, "queue_depth": true,
	"live_documents": true, "index_entries": true, "fact_entities": true, "facts": true,
	"persistent": true,
}

// phaseDelta is the work the server recorded between two scrapes.
type phaseDelta struct {
	stages, handlers map[string]obs.HistogramSnapshot
	serving, store   map[string]int64
	end              *scrape // gauges are read from the end scrape
}

func deltaOf(after, before *scrape) (*phaseDelta, error) {
	d := &phaseDelta{end: after}
	var err error
	if d.stages, err = histsDelta(after.Stages, before.Stages); err != nil {
		return nil, fmt.Errorf("stages: %w", err)
	}
	if d.handlers, err = histsDelta(after.Handlers, before.Handlers); err != nil {
		return nil, fmt.Errorf("handlers: %w", err)
	}
	if d.serving, err = countersDelta(after.Serving, before.Serving); err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	if d.store, err = countersDelta(after.Store, before.Store); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return d, nil
}

func countersDelta(after, before map[string]int64) (map[string]int64, error) {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
		if out[k] < 0 && !gauges[k] {
			return nil, fmt.Errorf("non-monotone counter %s: %d → %d", k, before[k], v)
		}
	}
	return out, nil
}

func histsDelta(after, before map[string]obs.HistogramSnapshot) (map[string]obs.HistogramSnapshot, error) {
	out := make(map[string]obs.HistogramSnapshot, len(after))
	for name, a := range after {
		b, ok := before[name]
		if !ok {
			return nil, fmt.Errorf("histogram %q missing from the earlier scrape", name)
		}
		d, err := histDelta(a, b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[name] = d
	}
	return out, nil
}

// gcEvents parses the GC trace lines from the server's stderr.
func gcEvents(stderr string) []gcEvent {
	var out []gcEvent
	for _, line := range strings.Split(stderr, "\n") {
		if ev, ok := parseGCTrace(line); ok {
			out = append(out, ev)
		}
	}
	return out
}
