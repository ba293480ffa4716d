package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterSetSnapshotSchemaStable(t *testing.T) {
	s := NewCounterSet("a", "b")
	s.Inc("a")
	s.Inc("nope") // unregistered: dropped, not grown
	snap := s.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot keys = %v, want exactly {a, b}", snap)
	}
	if snap["a"] != 1 || snap["b"] != 0 {
		t.Errorf("snapshot = %v, want a=1 b=0", snap)
	}
	if got := s.Get("nope"); got != 0 {
		t.Errorf("Get(nope) = %d, want 0", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Errorf("value = %d, want 5 (negative adds ignored)", got)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 100 * time.Millisecond} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if want := 103.0; s.SumMillis != want {
		t.Errorf("sum = %v ms, want %v", s.SumMillis, want)
	}
	if s.MinMillis != 1 || s.MaxMillis != 100 {
		t.Errorf("min/max = %v/%v, want 1/100", s.MinMillis, s.MaxMillis)
	}
	if s.P50Millis <= 0 || s.P50Millis > s.P90Millis || s.P90Millis > s.P99Millis {
		t.Errorf("quantiles not monotone: p50=%v p90=%v p99=%v", s.P50Millis, s.P90Millis, s.P99Millis)
	}
	if s.MaxMillis < s.P99Millis {
		t.Errorf("p99 %v exceeds max %v", s.P99Millis, s.MaxMillis)
	}
	// Buckets are cumulative and end at the total in-range count.
	last := int64(0)
	for _, b := range s.Buckets {
		if b.Count < last {
			t.Fatalf("bucket counts not cumulative: %v", s.Buckets)
		}
		last = b.Count
	}
	if last != 3 {
		t.Errorf("cumulative bucket total = %d, want 3", last)
	}
}

func TestHistogramOverflowAndClamp(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second)     // clamped to 0
	h.Observe(10 * time.Second) // beyond the last bound: overflow bucket
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if s.MinMillis != 0 {
		t.Errorf("min = %v, want 0 (clamped)", s.MinMillis)
	}
	if last := s.Buckets[len(s.Buckets)-1].Count; last != 1 {
		t.Errorf("in-range cumulative = %d, want 1 (one observation overflowed)", last)
	}
	// JSON must round-trip: no Inf/NaN anywhere in the snapshot.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
}

func TestEmptyHistogramSnapshotIsJSONSafe(t *testing.T) {
	s := NewHistogram().Snapshot()
	if s.Count != 0 || s.MinMillis != 0 || s.MeanMillis != 0 {
		t.Errorf("empty snapshot not zeroed: %+v", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("empty snapshot not JSON-encodable: %v", err)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Observe("x", time.Second) // must not panic
	r.Time("x")()
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Errorf("nil recorder snapshot = %v, want empty", snap)
	}
}

func TestRecorderPreRegistersStages(t *testing.T) {
	r := NewRecorder("classify", "filter")
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %v, want classify+filter at zero", snap)
	}
	if snap["classify"].Count != 0 {
		t.Errorf("pre-registered stage should start empty: %+v", snap["classify"])
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	const goroutines, perG = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stage := []string{"classify", "filter", "rwr"}[g%3]
			for i := 0; i < perG; i++ {
				r.Observe(stage, time.Duration(i)*time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	total := int64(0)
	for _, s := range r.Snapshot() {
		total += s.Count
	}
	if want := int64(goroutines * perG); total != want {
		t.Errorf("total observations = %d, want %d", total, want)
	}
}

func TestTimeRecordsElapsed(t *testing.T) {
	r := NewRecorder()
	done := r.Time("stage")
	time.Sleep(2 * time.Millisecond)
	done()
	s := r.Snapshot()["stage"]
	if s.Count != 1 || s.SumMillis < 1 {
		t.Errorf("timer recorded %+v, want one observation ≥ 1ms", s)
	}
}

func TestExponentialBounds(t *testing.T) {
	bounds := ExponentialBounds(100*time.Microsecond, 10*time.Second, 20)
	if len(bounds) < 80 { // 5 decades × 20 per decade
		t.Fatalf("too few bounds: %d", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v <= %v", i, bounds[i], bounds[i-1])
		}
	}
	if bounds[0] != int64(100*time.Microsecond) {
		t.Errorf("first bound = %d, want %d", bounds[0], int64(100*time.Microsecond))
	}
	if last := bounds[len(bounds)-1]; last < int64(10*time.Second) {
		t.Errorf("last bound = %d, does not cover hi", last)
	}
}

func TestHistogramCustomBounds(t *testing.T) {
	h := NewHistogramBounds(ExponentialBounds(time.Millisecond, time.Second, 10))
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	// With 10 buckets per decade the relative quantile error is ~26% worst
	// case; the true p50/p95/p99 of 1..1000ms are 500/950/990.
	checks := []struct {
		got, want float64
	}{{s.P50Millis, 500}, {s.P95Millis, 950}, {s.P99Millis, 990}}
	for _, c := range checks {
		if c.got < c.want*0.7 || c.got > c.want*1.3 {
			t.Errorf("quantile = %v, want within 30%% of %v", c.got, c.want)
		}
	}
	if s.P50Millis > s.P90Millis || s.P90Millis > s.P95Millis || s.P95Millis > s.P99Millis {
		t.Errorf("quantiles not monotone: %v/%v/%v/%v", s.P50Millis, s.P90Millis, s.P95Millis, s.P99Millis)
	}
}

func TestSnapshotQuantileExport(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	// The export must agree with the pre-computed fields bit-for-bit: both
	// run the same estimator over the same buckets.
	if got := s.Quantile(0.50); got != s.P50Millis {
		t.Errorf("Quantile(0.50) = %v, P50Millis = %v", got, s.P50Millis)
	}
	if got := s.Quantile(0.95); got != s.P95Millis {
		t.Errorf("Quantile(0.95) = %v, P95Millis = %v", got, s.P95Millis)
	}
	if got := s.Quantile(0.99); got != s.P99Millis {
		t.Errorf("Quantile(0.99) = %v, P99Millis = %v", got, s.P99Millis)
	}

	// And it must survive a JSON round trip — the scraped-/metrics path.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var decoded HistogramSnapshot
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if got, want := decoded.Quantile(0.95), s.P95Millis; math.Abs(got-want) > 1e-6 {
		t.Errorf("decoded Quantile(0.95) = %v, want %v", got, want)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty snapshot quantile should be 0")
	}
}
