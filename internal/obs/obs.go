package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterSet is a fixed set of named counters. Names are registered at
// construction so snapshots always carry the same keys — dashboards and golden
// tests rely on a stable schema, not on which code paths have run.
type CounterSet struct {
	counters map[string]*Counter
}

// NewCounterSet registers the given counter names, all starting at zero.
func NewCounterSet(names ...string) *CounterSet {
	s := &CounterSet{counters: make(map[string]*Counter, len(names))}
	for _, n := range names {
		s.counters[n] = &Counter{}
	}
	return s
}

// Inc increments the named counter. Unregistered names are dropped rather
// than grown: a typo must not invent a new time series at runtime.
func (s *CounterSet) Inc(name string) { s.Add(name, 1) }

// Add adds n to the named counter.
func (s *CounterSet) Add(name string, n int64) {
	if s == nil {
		return
	}
	if c, ok := s.counters[name]; ok {
		c.Add(n)
	}
}

// Get returns the named counter's value (zero for unregistered names).
func (s *CounterSet) Get(name string) int64 {
	if s == nil {
		return 0
	}
	if c, ok := s.counters[name]; ok {
		return c.Value()
	}
	return 0
}

// Snapshot returns the current value of every registered counter.
func (s *CounterSet) Snapshot() map[string]int64 {
	if s == nil {
		return map[string]int64{}
	}
	out := make(map[string]int64, len(s.counters))
	for name, c := range s.counters {
		out[name] = c.Value()
	}
	return out
}

// defaultBucketBounds are the standard histogram upper bounds in
// nanoseconds: exponential 50µs → 5s, matched to pipeline stages that run
// from tens of microseconds (filtering a small document) to seconds (RWR on
// a dense page). Observations above the last bound land in an implicit
// overflow bucket.
var defaultBucketBounds = []int64{
	50_000, 100_000, 250_000, 500_000, // 50µs … 500µs
	1_000_000, 2_500_000, 5_000_000, 10_000_000, // 1ms … 10ms
	25_000_000, 50_000_000, 100_000_000, 250_000_000, // 25ms … 250ms
	500_000_000, 1_000_000_000, 2_500_000_000, 5_000_000_000, // 500ms … 5s
}

// Histogram is a fixed-bucket latency histogram. All methods are safe for
// concurrent use; recording is wait-free (atomic adds plus a CAS loop for
// min/max). The bucket layout is fixed at construction: NewHistogram uses
// the standard pipeline-stage bounds, NewHistogramBounds takes a custom
// HDR-style layout (the load harness uses ExponentialBounds for finer tail
// resolution than the stage histograms need).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; valid only when count > 0
	max     atomic.Int64
	bounds  []int64        // immutable after construction
	buckets []atomic.Int64 // len(bounds)+1; last = overflow
}

// NewHistogram returns an empty histogram with the standard stage bounds.
func NewHistogram() *Histogram { return NewHistogramBounds(defaultBucketBounds) }

// NewHistogramBounds returns an empty histogram with custom bucket upper
// bounds in nanoseconds. Bounds must be positive and strictly increasing;
// NewHistogramBounds panics otherwise (bucket layouts are static program
// configuration, not runtime input).
func NewHistogramBounds(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: empty histogram bounds")
	}
	for i, b := range bounds {
		if b <= 0 || (i > 0 && b <= bounds[i-1]) {
			panic("obs: histogram bounds must be positive and strictly increasing")
		}
	}
	h := &Histogram{
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(int64(1<<63 - 1))
	return h
}

// ExponentialBounds builds a log-spaced bucket layout: perDecade bounds per
// factor-of-10 from lo to hi inclusive (both rounded to nanoseconds). This
// is the HDR-histogram trade: relative quantile error is bounded by the
// per-decade resolution instead of growing with the value, so p99 at 800ms
// is as trustworthy as p50 at 2ms. 20 bounds per decade keeps the relative
// error ≈ 12% at ~7x the memory of the default stage layout.
func ExponentialBounds(lo, hi time.Duration, perDecade int) []int64 {
	if lo <= 0 || hi <= lo || perDecade < 1 {
		panic("obs: ExponentialBounds needs 0 < lo < hi and perDecade >= 1")
	}
	factor := math.Pow(10, 1/float64(perDecade))
	var out []int64
	for v := float64(lo); ; v *= factor {
		b := int64(math.Round(v))
		if len(out) > 0 && b <= out[len(out)-1] {
			continue // rounding collapsed two bounds at the nanosecond floor
		}
		out = append(out, b)
		if b >= int64(hi) {
			break
		}
	}
	return out
}

// Observe records one duration. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return ns <= h.bounds[i] })
	h.buckets[i].Add(1)
}

// Bucket is one cumulative histogram bucket: the number of observations at or
// below the upper bound. Only finite bounds are emitted; the overflow count is
// the snapshot's Count minus the last bucket's cumulative Count.
type Bucket struct {
	LEMillis float64 `json:"le_ms"`
	Count    int64   `json:"count"`
}

// HistogramSnapshot is a point-in-time JSON-ready view of a histogram. All
// durations are milliseconds. Quantiles are estimated by linear interpolation
// inside the bucket that holds the target rank; Quantile exports the same
// estimator for any q, so consumers (the load harness, dashboards scraping
// /metrics) can derive quantiles the snapshot does not pre-compute.
type HistogramSnapshot struct {
	Count      int64    `json:"count"`
	SumMillis  float64  `json:"sum_ms"`
	MeanMillis float64  `json:"mean_ms"`
	MinMillis  float64  `json:"min_ms"`
	MaxMillis  float64  `json:"max_ms"`
	P50Millis  float64  `json:"p50_ms"`
	P90Millis  float64  `json:"p90_ms"`
	P95Millis  float64  `json:"p95_ms"`
	P99Millis  float64  `json:"p99_ms"`
	Buckets    []Bucket `json:"buckets"`
}

const nsPerMs = 1e6

// Snapshot captures the histogram's current state. Concurrent Observe calls
// may land between field reads; the snapshot is internally near-consistent,
// which is all a metrics endpoint needs.
func (h *Histogram) Snapshot() HistogramSnapshot {
	counts := make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	s := HistogramSnapshot{
		Count:     h.count.Load(),
		SumMillis: float64(h.sum.Load()) / nsPerMs,
		Buckets:   make([]Bucket, len(h.bounds)),
	}
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += counts[i]
		s.Buckets[i] = Bucket{LEMillis: float64(bound) / nsPerMs, Count: cum}
	}
	if s.Count > 0 {
		s.MeanMillis = s.SumMillis / float64(s.Count)
		s.MinMillis = float64(h.min.Load()) / nsPerMs
		s.MaxMillis = float64(h.max.Load()) / nsPerMs
		s.P50Millis = quantile(h.bounds, counts, s.Count, 0.50)
		s.P90Millis = quantile(h.bounds, counts, s.Count, 0.90)
		s.P95Millis = quantile(h.bounds, counts, s.Count, 0.95)
		s.P99Millis = quantile(h.bounds, counts, s.Count, 0.99)
	}
	return s
}

// Quantile estimates the q-quantile (0 < q ≤ 1) in milliseconds from the
// snapshot's cumulative buckets — the export path for quantiles beyond the
// pre-computed p50/p90/p95/p99. It reconstructs per-bucket counts from the
// cumulative form, so it works on snapshots decoded from JSON (a scraped
// /metrics payload) as well as fresh ones. Returns 0 on an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	bounds := make([]int64, len(s.Buckets))
	counts := make([]int64, len(s.Buckets)+1)
	prev := int64(0)
	for i, b := range s.Buckets {
		bounds[i] = int64(b.LEMillis * nsPerMs)
		counts[i] = b.Count - prev
		prev = b.Count
	}
	counts[len(s.Buckets)] = s.Count - prev // overflow
	return quantile(bounds, counts, s.Count, q)
}

// quantile estimates the q-quantile in milliseconds from per-bucket counts.
// Within the holding bucket the observations are assumed uniform; the
// overflow bucket reports its lower bound (there is no upper edge to
// interpolate toward).
func quantile(bounds []int64, counts []int64, total int64, q float64) float64 {
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = float64(bounds[i-1])
		}
		if i >= len(bounds) { // overflow bucket
			return float64(bounds[len(bounds)-1]) / nsPerMs
		}
		hi := float64(bounds[i])
		frac := (rank - prev) / float64(c)
		return (lo + (hi-lo)*frac) / nsPerMs
	}
	return float64(bounds[len(bounds)-1]) / nsPerMs
}

// MergeSnapshots combines two histogram snapshots of the same bucket layout
// into one, as if every observation behind both had landed in a single
// histogram: counts, sums and cumulative buckets add, min/max combine, and
// the quantiles are re-estimated from the merged buckets with the same
// estimator Snapshot uses. This is the aggregation path for snapshots that
// crossed a process boundary — briq-gateway merges the /metrics scrapes of
// its replicas this way, where the live *Histogram is out of reach. Within
// one process there is nothing to merge: concurrent writers share one
// Recorder.
//
// A layout mismatch returns an error rather than panicking: scraped payloads
// are runtime input, not program configuration. An empty side (Count == 0,
// no buckets) merges to the other side unchanged.
func MergeSnapshots(a, b HistogramSnapshot) (HistogramSnapshot, error) {
	if len(a.Buckets) == 0 && a.Count == 0 {
		return b, nil
	}
	if len(b.Buckets) == 0 && b.Count == 0 {
		return a, nil
	}
	if len(a.Buckets) != len(b.Buckets) {
		return HistogramSnapshot{}, fmt.Errorf("obs: merging snapshots with %d and %d buckets", len(a.Buckets), len(b.Buckets))
	}
	out := HistogramSnapshot{
		Count:     a.Count + b.Count,
		SumMillis: a.SumMillis + b.SumMillis,
		Buckets:   make([]Bucket, len(a.Buckets)),
	}
	for i := range a.Buckets {
		if a.Buckets[i].LEMillis != b.Buckets[i].LEMillis {
			return HistogramSnapshot{}, fmt.Errorf("obs: merging snapshots with different bucket bounds at %d: %g vs %g",
				i, a.Buckets[i].LEMillis, b.Buckets[i].LEMillis)
		}
		out.Buckets[i] = Bucket{
			LEMillis: a.Buckets[i].LEMillis,
			Count:    a.Buckets[i].Count + b.Buckets[i].Count,
		}
	}
	switch {
	case a.Count == 0:
		out.MinMillis, out.MaxMillis = b.MinMillis, b.MaxMillis
	case b.Count == 0:
		out.MinMillis, out.MaxMillis = a.MinMillis, a.MaxMillis
	default:
		out.MinMillis, out.MaxMillis = math.Min(a.MinMillis, b.MinMillis), math.Max(a.MaxMillis, b.MaxMillis)
	}
	if out.Count > 0 {
		out.MeanMillis = out.SumMillis / float64(out.Count)
		out.P50Millis = out.Quantile(0.50)
		out.P90Millis = out.Quantile(0.90)
		out.P95Millis = out.Quantile(0.95)
		out.P99Millis = out.Quantile(0.99)
	}
	return out, nil
}

// Recorder names histograms by stage. The zero value is ready to use; a nil
// *Recorder discards observations, so instrumented code can call it
// unconditionally.
type Recorder struct {
	mu     sync.RWMutex
	stages map[string]*Histogram
}

// NewRecorder returns a Recorder with the given stage histograms
// pre-registered, so snapshots expose them (at zero) before any traffic.
func NewRecorder(stages ...string) *Recorder {
	r := &Recorder{}
	for _, s := range stages {
		r.Stage(s)
	}
	return r
}

// Stage returns the named histogram, creating it on first use.
func (r *Recorder) Stage(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.stages[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.stages[name]; h != nil {
		return h
	}
	if r.stages == nil {
		r.stages = make(map[string]*Histogram)
	}
	h = NewHistogram()
	r.stages[name] = h
	return h
}

// Observe records one duration for the named stage. No-op on a nil Recorder.
func (r *Recorder) Observe(stage string, d time.Duration) {
	if r == nil {
		return
	}
	r.Stage(stage).Observe(d)
}

// Time starts a stage timer; the returned func records the elapsed time when
// called. Usable as `defer r.Time(stage)()`. On a nil Recorder the returned
// func is a no-op.
func (r *Recorder) Time(stage string) func() {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() { r.Observe(stage, time.Since(start)) }
}

// Snapshot captures every registered stage histogram, keyed by stage name.
func (r *Recorder) Snapshot() map[string]HistogramSnapshot {
	if r == nil {
		return map[string]HistogramSnapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]HistogramSnapshot, len(r.stages))
	for name, h := range r.stages {
		out[name] = h.Snapshot()
	}
	return out
}
