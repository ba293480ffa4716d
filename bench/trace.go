package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed interval of the traced round or the component pass:
// a client request (client.<route>), one page of an ingest stream, or a
// public call of a layer timed in-process. Spans of one request or one
// component page share Trace; Parent links a span to the span that caused
// it. Times are microseconds since the tracer was created.
type Span struct {
	ID       int64   `json:"id"`
	Parent   int64   `json:"parent,omitempty"`
	Trace    string  `json:"trace"`
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	StartUs  float64 `json:"start_us"`
	DurUs    float64 `json:"dur_us"`
	SelfUs   float64 `json:"self_us"`
	Status   int     `json:"status,omitempty"`
	Bytes    int     `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the benchmark writes trace.json at exit.
// A nil *tracer records nothing, so untraced rounds pass nil and pay one
// branch per request. Safe for concurrent use.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	nextID int64
	spans  []Span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span ID, so a parent's ID can be handed to children recorded
// before the parent itself ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a finished span. A zero s.ID gets a fresh one. It returns the
// span's ID.
func (t *tracer) add(s Span, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	s.StartUs = float64(start.Sub(t.origin).Nanoseconds()) / 1e3
	s.DurUs = float64(end.Sub(start).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// finish fills every span's self time: its duration minus the union of its
// children's intervals.
func (t *tracer) finish() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.StartUs, s.StartUs + s.DurUs})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfUs = selfTime(interval{s.StartUs, s.StartUs + s.DurUs}, children[s.ID])
	}
	return append([]Span(nil), t.spans...)
}

// writeTrace writes DIR/trace.json: the machine record, every span, and the
// per-workload breakdowns printed on stdout.
func writeTrace(dir string, machine map[string]string, spans []Span, breakdowns map[string][]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Machine    map[string]string   `json:"machine"`
		Breakdowns map[string][]string `json:"breakdowns"`
		Spans      []Span              `json:"spans"`
	}{machine, breakdowns, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), append(b, '\n'), 0o644)
}
