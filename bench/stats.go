package main

import (
	"fmt"
	"math"
	"sort"

	"briq/internal/obs"
)

// minBeyond is how many samples must lie strictly beyond a percentile's rank
// before the percentile is reported: fewer, and the value is one or two
// unlucky requests rather than a property of the system.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (0 < q < 1) and
// whether at least minBeyond samples lie beyond it. samples is not modified.
func percentile(samples []float64, q float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return s[k-1], n-k >= minBeyond
}

// median is the middle value of xs (the mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0: a layer the workload never reached did no work
// per operation.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histDelta subtracts a /metrics histogram scrape taken at the start of a
// phase from one taken at its end, count by count, sum by sum and bucket by
// bucket. A negative difference means the two scrapes do not bracket one
// window of one process (a restart, a reset) and is an error, not a number.
// Min and max cannot be recovered from cumulative snapshots and stay 0.
func histDelta(after, before obs.HistogramSnapshot) (obs.HistogramSnapshot, error) {
	if len(after.Buckets) != len(before.Buckets) {
		return obs.HistogramSnapshot{}, fmt.Errorf("histogram layouts differ: %d vs %d buckets", len(after.Buckets), len(before.Buckets))
	}
	d := obs.HistogramSnapshot{
		Count:     after.Count - before.Count,
		SumMillis: after.SumMillis - before.SumMillis,
		Buckets:   make([]obs.Bucket, len(after.Buckets)),
	}
	// Sums are float milliseconds rebuilt from integer nanoseconds; allow the
	// rounding of that conversion, nothing more.
	if d.Count < 0 || d.SumMillis < -1e-6 {
		return obs.HistogramSnapshot{}, fmt.Errorf("non-monotone histogram: count %d → %d, sum %g → %g ms",
			before.Count, after.Count, before.SumMillis, after.SumMillis)
	}
	if d.SumMillis < 0 {
		d.SumMillis = 0
	}
	for i, b := range after.Buckets {
		if b.LEMillis != before.Buckets[i].LEMillis {
			return obs.HistogramSnapshot{}, fmt.Errorf("histogram bucket %d bounds differ: %g vs %g ms", i, b.LEMillis, before.Buckets[i].LEMillis)
		}
		c := b.Count - before.Buckets[i].Count
		if c < 0 {
			return obs.HistogramSnapshot{}, fmt.Errorf("non-monotone histogram bucket le=%g ms: %d → %d", b.LEMillis, before.Buckets[i].Count, b.Count)
		}
		d.Buckets[i] = obs.Bucket{LEMillis: b.LEMillis, Count: c}
	}
	if d.Count > 0 {
		d.MeanMillis = d.SumMillis / float64(d.Count)
		d.P50Millis = d.Quantile(0.50)
		d.P90Millis = d.Quantile(0.90)
		d.P95Millis = d.Quantile(0.95)
		d.P99Millis = d.Quantile(0.99)
	}
	return d, nil
}

// interval is a half-open time range in microseconds.
type interval struct{ start, end float64 }

// selfTime is a span's duration minus the part of it that the union of its
// children's intervals covers. Children may overlap each other (concurrent
// work) or stick out of the parent (clock skew between recorders); only the
// covered part of the parent counts, once.
func selfTime(parent interval, children []interval) float64 {
	var clipped []interval
	for _, c := range children {
		s, e := math.Max(c.start, parent.start), math.Min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := 0.0
	curS, curE := math.Inf(-1), math.Inf(-1)
	for _, c := range clipped {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
			continue
		}
		curE = math.Max(curE, c.end)
	}
	if curE > curS {
		covered += curE - curS
	}
	return (parent.end - parent.start) - covered
}
