package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The machine the benchmark runs on changes speed under it: other tenants of
// the host take cycles, cache and memory bandwidth for minutes at a time, and
// nothing inside the VM shows it. Every round starts with a calibration, a
// fixed piece of work in the benchmark process while no server runs. The
// run's speed is its median calibration rate over calibReference, and the
// end-to-end times are multiplied, and rates divided, by speed raised to
// calibElasticity: the calibration reacts more strongly to a busy host than
// the server's work does. The calibration runs no repository code, so a
// change under test moves the scaled metrics in full.
const (
	calibTime      = 250 * time.Millisecond
	calibReference = 6000.0 // units/s: the 2-vCPU reference machine, median of 120 calibrations
	// calibElasticity is the slope of log(alignment rate) on log(calibration
	// rate): 0.65 over 45 interleaved in-process samples on the reference
	// machine while other tenants loaded the host; fits to the end-to-end
	// runs of each workload gave 0.6 to 0.8.
	calibElasticity = 0.65
)

// speedFactor is what the run's calibrations scale its end-to-end times by.
func speedFactor(calibs []float64) float64 {
	return math.Pow(median(calibs)/calibReference, calibElasticity)
}

// calibRecord is the row type of the calibration unit's JSON step.
type calibRecord struct {
	ID    string  `json:"id"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Keys  []int   `json:"keys"`
}

// calibUnit is a fixed piece of standard-library work shaped like the
// server's: number formatting and parsing, map inserts and lookups,
// allocation, sorting, JSON encoding and hashing. It depends on nothing in
// the repository, so no change under test moves its cost; only the machine
// does. The result is returned so the compiler keeps the work.
func calibUnit(seed uint64) uint64 {
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	recs := make([]calibRecord, 256)
	index := make(map[string]int, len(recs))
	var text strings.Builder
	for i := range recs {
		id := strconv.FormatUint(next()%1_000_000, 36)
		v := float64(next()%10_000_000) / 100
		recs[i] = calibRecord{ID: id, Value: v, Unit: "usd", Keys: []int{int(next() % 997), int(next() % 991)}}
		index[id] += i
		text.WriteString(strconv.FormatFloat(v, 'f', 2, 64))
		text.WriteByte(' ')
	}
	var acc uint64
	for _, f := range strings.Fields(text.String()) {
		v, _ := strconv.ParseFloat(f, 64)
		acc += uint64(v)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Value < recs[j].Value })
	b, _ := json.Marshal(recs)
	sum := sha256.Sum256(b)
	for _, r := range recs {
		acc += uint64(index[r.ID])
	}
	return acc ^ binary.LittleEndian.Uint64(sum[:])
}

// calibrate runs calibration units on `workers` goroutines for about d and
// returns the units completed per second: the machine's speed at that moment.
func calibrate(workers int, d time.Duration) float64 {
	var units atomic.Int64
	var sink atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			var acc uint64
			for n := uint64(0); time.Now().Before(deadline); n++ {
				acc += calibUnit(seed + n)
				units.Add(1)
			}
			sink.Add(acc)
		}(uint64(w) << 32)
	}
	wg.Wait()
	return float64(units.Load()) / time.Since(start).Seconds()
}
