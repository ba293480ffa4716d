package obs

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestMergeSnapshotsMatchesHistogramMerge: merging two snapshots must agree
// with snapshotting one histogram that observed both sets — the
// cross-process aggregation path may not tell a different story than a
// single in-process histogram.
func TestMergeSnapshotsMatchesHistogramMerge(t *testing.T) {
	a, b, all := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 1; i <= 200; i++ {
		d := time.Duration(i) * 731 * time.Microsecond
		a.Observe(d)
		all.Observe(d)
	}
	for i := 1; i <= 90; i++ {
		d := time.Duration(i) * 13 * time.Millisecond
		b.Observe(d)
		all.Observe(d)
	}

	got, err := MergeSnapshots(a.Snapshot(), b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want := all.Snapshot()

	if got.Count != want.Count || got.SumMillis != want.SumMillis {
		t.Errorf("count/sum = %d/%g, want %d/%g", got.Count, got.SumMillis, want.Count, want.SumMillis)
	}
	if got.MinMillis != want.MinMillis || got.MaxMillis != want.MaxMillis {
		t.Errorf("min/max = %g/%g, want %g/%g", got.MinMillis, got.MaxMillis, want.MinMillis, want.MaxMillis)
	}
	for _, q := range []struct{ got, want float64 }{
		{got.P50Millis, want.P50Millis},
		{got.P90Millis, want.P90Millis},
		{got.P95Millis, want.P95Millis},
		{got.P99Millis, want.P99Millis},
	} {
		if math.Abs(q.got-q.want) > 1e-6 {
			t.Errorf("quantile = %g, want %g", q.got, q.want)
		}
	}
	for i := range want.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, got.Buckets[i], want.Buckets[i])
		}
	}
}

// TestMergeSnapshotsJSONRoundTrip merges snapshots that crossed a JSON
// boundary, the way the gateway receives them from replica /metrics scrapes.
func TestMergeSnapshotsJSONRoundTrip(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 50; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	data, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded HistogramSnapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}

	merged, err := MergeSnapshots(decoded, decoded)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Count != 100 {
		t.Errorf("merged count = %d, want 100", merged.Count)
	}
	if merged.MeanMillis != decoded.MeanMillis {
		t.Errorf("doubling a population moved its mean: %g vs %g", merged.MeanMillis, decoded.MeanMillis)
	}
	if math.Abs(merged.P50Millis-decoded.P50Millis) > 1e-6 {
		t.Errorf("doubling a population moved its median: %g vs %g", merged.P50Millis, decoded.P50Millis)
	}
}

// TestMergeSnapshotsEmptyAndMismatch covers the edges: an empty side is the
// identity, and mismatched layouts are an error, not a panic.
func TestMergeSnapshotsEmptyAndMismatch(t *testing.T) {
	h := NewHistogram()
	h.Observe(5 * time.Millisecond)
	s := h.Snapshot()

	if got, err := MergeSnapshots(HistogramSnapshot{}, s); err != nil || got.Count != 1 {
		t.Errorf("empty left identity: %+v, %v", got, err)
	}
	if got, err := MergeSnapshots(s, HistogramSnapshot{}); err != nil || got.Count != 1 {
		t.Errorf("empty right identity: %+v, %v", got, err)
	}

	other := NewHistogramBounds(ExponentialBounds(time.Millisecond, time.Second, 5))
	other.Observe(time.Millisecond)
	if _, err := MergeSnapshots(s, other.Snapshot()); err == nil {
		t.Error("mismatched layouts merged without error")
	}

	// Zero-count but registered (pre-registered stage on a cold server)
	// must still merge with a populated side.
	cold := NewHistogram().Snapshot()
	got, err := MergeSnapshots(cold, s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 1 || got.MinMillis != s.MinMillis || got.MaxMillis != s.MaxMillis {
		t.Errorf("cold+warm merge = %+v, want the warm side's stats", got)
	}
}
