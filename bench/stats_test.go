package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"briq/internal/obs"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	pooled := make([]float64, 0, 100)
	// Three rounds' samples pooled: the percentile is over the union, not a
	// per-round average.
	for round := 0; round < 3; round++ {
		for i := 1; i <= 33; i++ {
			pooled = append(pooled, float64(i+round*33))
		}
	}
	pooled = append(pooled, 100) // 100 samples: 1..100
	for _, c := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{0.50, 50, true},  // 50 beyond
		{0.90, 90, true},  // exactly 10 beyond
		{0.91, 91, false}, // 9 beyond
		{0.99, 99, false}, // 1 beyond
	} {
		got, ok := percentile(pooled, c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..100, %g) = %g, %v; want %g, %v", c.q, got, ok, c.want, c.ok)
		}
	}
	if p99, ok := percentile(append(pooled, make([]float64, 900)...), 0.99); !ok || p99 != 90 {
		t.Errorf("p99 over 1,000 samples = %g, %v; want 90 (ten beyond), true", p99, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
	if pooled[0] != 1 || pooled[99] != 100 {
		t.Error("percentile reordered its input")
	}
}

func TestMedianOfRounds(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{70, 80, 61, 75}, 72.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestEndToEndScaledToReferenceSpeed(t *testing.T) {
	var rounds []*roundOut
	for i := 0; i < 3; i++ {
		o := &roundOut{wall: time.Second, ops: 100, cpu: 500 * time.Millisecond, rssMiB: 40}
		for k := 1; k <= 100; k++ {
			o.lat = append(o.lat, float64(k))
		}
		rounds = append(rounds, o)
	}
	boots := []float64{0.2, 0.3, 0.25}
	raw := endToEndValues(rounds, boots, 1)
	slow := endToEndValues(rounds, boots, 0.8) // a machine at 0.8 of the reference speed
	for name, want := range map[string]float64{
		"setup_s":              0.25 * 0.8,
		"ops_per_s":            100 / 0.8,
		"p50_ms":               50 * 0.8,
		"p90_ms":               90 * 0.8,
		"server_cpu_ms_per_op": 5 * 0.8,
		"peak_rss_mb":          40,
	} {
		if got := slow.m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s at speed 0.8 = %g, want %g (as measured: %g)", name, got, want, raw.m[name])
		}
	}
	if f := speedFactor([]float64{calibReference, calibReference / 2, calibReference / 4}); math.Abs(f-math.Pow(0.5, calibElasticity)) > 1e-12 {
		t.Errorf("speed factor at half the reference calibration rate = %g, want 0.5^%g", f, calibElasticity)
	}
}

func TestCalibUnitIsFixedWork(t *testing.T) {
	if calibUnit(7) != calibUnit(7) {
		t.Error("calibration unit is not deterministic")
	}
	if calibUnit(7) == calibUnit(8) {
		t.Error("calibration unit ignores its seed")
	}
	if rate := calibrate(2, 20*time.Millisecond); rate <= 0 {
		t.Errorf("calibration rate %g", rate)
	}
}

func snapshot(count int64, sumMs float64, cum ...int64) obs.HistogramSnapshot {
	s := obs.HistogramSnapshot{Count: count, SumMillis: sumMs}
	for i, c := range cum {
		s.Buckets = append(s.Buckets, obs.Bucket{LEMillis: float64(i + 1), Count: c})
	}
	return s
}

func TestHistDelta(t *testing.T) {
	before := snapshot(4, 5.0, 1, 3, 4)
	after := snapshot(10, 20.0, 2, 7, 9) // one observation in overflow
	d, err := histDelta(after, before)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count != 6 || d.SumMillis != 15 || d.MeanMillis != 2.5 {
		t.Errorf("delta count/sum/mean = %d/%g/%g, want 6/15/2.5", d.Count, d.SumMillis, d.MeanMillis)
	}
	for i, want := range []int64{1, 4, 5} {
		if d.Buckets[i].Count != want {
			t.Errorf("bucket %d = %d, want %d", i, d.Buckets[i].Count, want)
		}
	}

	for name, bad := range map[string]obs.HistogramSnapshot{
		"count":  snapshot(3, 20, 2, 7, 9),
		"sum":    snapshot(10, 4, 2, 7, 9),
		"bucket": snapshot(10, 20, 0, 7, 9),
	} {
		if _, err := histDelta(bad, before); err == nil || !strings.Contains(err.Error(), "non-monotone") {
			t.Errorf("%s went backwards: err = %v, want a non-monotone error", name, err)
		}
	}
	if _, err := histDelta(snapshot(10, 20, 2, 7), before); err == nil {
		t.Error("delta across different bucket layouts accepted")
	}
}

func TestCountersDelta(t *testing.T) {
	d, err := countersDelta(map[string]int64{"hits": 9, "entries": 2}, map[string]int64{"hits": 4, "entries": 5})
	if err != nil {
		t.Fatal(err)
	}
	if d["hits"] != 5 || d["entries"] != -3 {
		t.Errorf("delta = %v, want hits 5 and the entries gauge -3", d)
	}
	if _, err := countersDelta(map[string]int64{"misses": 1}, map[string]int64{"misses": 2}); err == nil {
		t.Error("a shrinking counter was accepted")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     float64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}, {35, 45}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"sticking out", []interval{{-20, 10}, {95, 130}}, 85},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"outside", []interval{{150, 160}}, 100},
	} {
		if got := selfTime(parent, c.children); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: self time %g, want %g", c.name, got, c.want)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.origin
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	pid := tr.id()
	tr.add(Span{Parent: pid, Name: "a"}, at(10), at(40))
	tr.add(Span{Parent: pid, Name: "b"}, at(30), at(60))
	tr.add(Span{ID: pid, Name: "page"}, at(0), at(100))
	var nilTracer *tracer
	if id := nilTracer.add(Span{Name: "dropped"}, at(0), at(1)); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	for _, s := range tr.finish() {
		if s.Name == "page" && math.Abs(s.SelfUs-50) > 1e-6 {
			t.Errorf("page self time %g µs, want 50", s.SelfUs)
		}
		if s.Name == "a" && math.Abs(s.SelfUs-30) > 1e-6 {
			t.Errorf("leaf self time %g µs, want its duration 30", s.SelfUs)
		}
	}
}
