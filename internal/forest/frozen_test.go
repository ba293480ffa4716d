package forest

// Equivalence suite for the frozen flat-array engine: on randomized seeded
// forests and feature vectors (property-style, deterministic seeds), every
// Frozen prediction must be bit-identical to the pointer-tree walker it
// compiles — float64 == on every probability, not approximate equality. The
// pointer walker stays in the tree as the executable reference; this suite
// is the contract that lets the hot path use the flat engine.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// randomForest trains a forest of seed-dependent shape on seed-dependent
// samples, returning the forest and a batch of probe vectors (including
// out-of-distribution values, ±Inf and NaN — prediction must stay
// deterministic and identical on both engines even for garbage input).
func randomForest(t *testing.T, seed int64) (*Forest, [][]float64) {
	t.Helper()
	return randomForestOf(t, seed, 0)
}

// randomForestOf is randomForest with a fixed class count; 0 draws 2–4
// classes from the seed.
func randomForestOf(t *testing.T, seed int64, classes int) (*Forest, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	drawn := 2 + rng.Intn(3)
	if classes == 0 {
		classes = drawn
	}
	nFeatures := 3 + rng.Intn(10)
	nSamples := 40 + rng.Intn(120)
	samples := make([]Sample, nSamples)
	for i := range samples {
		fs := make([]float64, nFeatures)
		for j := range fs {
			fs[j] = rng.NormFloat64() * float64(1+j%3)
		}
		label := 0
		if fs[0]+fs[1] > 0 {
			label = 1 + rng.Intn(classes-1)
		}
		samples[i] = Sample{Features: fs, Label: label}
	}
	f, err := Train(samples, classes, Config{
		Trees:    5 + rng.Intn(25),
		MaxDepth: 3 + rng.Intn(6),
		MinLeaf:  1 + rng.Intn(3),
		Seed:     seed,
	})
	if err != nil {
		t.Fatalf("seed %d: train: %v", seed, err)
	}

	probes := make([][]float64, 0, 40)
	for i := 0; i < 32; i++ {
		x := make([]float64, nFeatures)
		for j := range x {
			x[j] = rng.NormFloat64() * 10
		}
		probes = append(probes, x)
	}
	for _, v := range []float64{0, -1e300, 1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		x := make([]float64, nFeatures)
		for j := range x {
			x[j] = v
		}
		probes = append(probes, x)
	}
	return f, probes
}

// TestFrozenBitIdenticalToReference: PredictProba and PositiveProba through
// the frozen engine equal the pointer-tree walker exactly, across randomized
// forests and probe vectors.
func TestFrozenBitIdenticalToReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		f, probes := randomForest(t, seed)
		z := f.Frozen()
		if z.Classes() != f.Classes() || z.NumFeatures() != f.NumFeatures() || z.Trees() != len(f.trees) {
			t.Fatalf("seed %d: frozen shape (%d,%d,%d) != forest (%d,%d,%d)", seed,
				z.Classes(), z.NumFeatures(), z.Trees(), f.Classes(), f.NumFeatures(), len(f.trees))
		}
		var scratch []float64
		for pi, x := range probes {
			want := f.PredictProba(x)
			got := z.PredictProba(x, scratch)
			scratch = got // reuse across probes: stale contents must not leak
			for c := range want {
				if !bitEqual(got[c], want[c]) {
					t.Fatalf("seed %d probe %d class %d: frozen %v (bits %x), reference %v (bits %x)",
						seed, pi, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
				}
			}
			if got, want := z.PositiveProba(x), f.PositiveProba(x); !bitEqual(got, want) {
				t.Fatalf("seed %d probe %d: frozen PositiveProba %v, reference %v", seed, pi, got, want)
			}
		}
	}
}

// TestFrozenBatchMatchesSingle: PositiveProbaBatch over a row-major matrix
// agrees exactly with per-vector calls, with out reused across calls and
// with nil or all-zero floors. On 3- and 4-class forests it walks every
// tree whatever the floors, so all-trees floors change nothing there.
func TestFrozenBatchMatchesSingle(t *testing.T) {
	for _, classes := range []int{2, 3, 4} {
		for seed := int64(1); seed <= 6; seed++ {
			f, probes := randomForestOf(t, seed, classes)
			z := f.Frozen()
			nf := z.NumFeatures()
			xs := make([]float64, 0, len(probes)*nf)
			for _, x := range probes {
				xs = append(xs, x...)
			}

			var out []float64
			zeros := make([]int32, len(probes))
			floorSets := [][]int32{nil, zeros}
			if classes != 2 {
				all := make([]int32, len(probes))
				for i := range all {
					all[i] = int32(z.Trees())
				}
				floorSets = append(floorSets, all)
			}
			// Two passes through the same out: the second must not see the
			// first pass's values (the stale-scratch hazard of buffer reuse).
			for pass := 0; pass < 2; pass++ {
				for _, floors := range floorSets {
					out = z.PositiveProbaBatch(xs, len(probes), floors, out)
					for r, x := range probes {
						if want := f.PositiveProba(x); !bitEqual(out[r], want) {
							t.Fatalf("%d classes seed %d pass %d row %d: batch positive %v, reference %v",
								classes, seed, pass, r, out[r], want)
						}
					}
				}
			}
		}
	}
}

// checkFloors runs rows through PositiveProbaBatch in one batch with the
// given per-row floors and checks each against Forest.PositiveProba: a row
// scores below floor/trees exactly when its full score does, and
// bit-identically to the full score otherwise (so always, for a floor of 0
// or below).
func checkFloors(t *testing.T, f *Forest, z *Frozen, rows [][]float64, floors []int32) {
	t.Helper()
	xs := make([]float64, 0, len(rows)*z.NumFeatures())
	for _, x := range rows {
		xs = append(xs, x...)
	}
	got := z.PositiveProbaBatch(xs, len(rows), floors, nil)
	trees := float64(z.Trees())
	for r, x := range rows {
		want := f.PositiveProba(x)
		thr := float64(floors[r]) / trees
		if want < thr {
			if !(got[r] < thr) {
				t.Fatalf("row %d %v floor %d: full score %v is below %v, floored score %v is not",
					r, x, floors[r], want, thr, got[r])
			}
			continue
		}
		if !bitEqual(got[r], want) {
			t.Fatalf("row %d %v floor %d: floored score %v, full score %v (at or above %v)",
				r, x, floors[r], got[r], want, thr)
		}
	}
}

// TestPositiveProbaBatchFloors: on random binary forests and probe rows
// (NaN and ±Inf included), random per-row vote floors stop a row's walk
// only when its full score is below the floor, and VotesFor is the
// smallest vote count whose score reaches a threshold.
func TestPositiveProbaBatchFloors(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		f, probes := randomForestOf(t, seed, 2)
		z := f.Frozen()
		rng := rand.New(rand.NewSource(seed + 1000))
		trees := z.Trees()
		floors := make([]int32, len(probes))
		for i := range floors {
			floors[i] = int32(rng.Intn(trees+5) - 2) // -2 .. trees+2
		}
		checkFloors(t, f, z, probes, floors)

		for _, p := range []float64{-1, 0, 0.3, 0.55, 0.5, 1, 1.5, math.NaN()} {
			k := z.VotesFor(p)
			div := float64(trees)
			if k < 0 || int(k) > trees {
				t.Fatalf("seed %d: VotesFor(%v) = %d outside [0, %d]", seed, p, k, trees)
			}
			if k > 0 && (float64(k)/div < p || float64(k-1)/div >= p) {
				t.Fatalf("seed %d: VotesFor(%v) = %d is not the fewest votes reaching it", seed, p, k)
			}
			if k == 0 && p > 0 && float64(trees)/div >= p {
				t.Fatalf("seed %d: VotesFor(%v) = 0, but %d votes reach it", seed, p, trees)
			}
		}
	}
}

// TestFrozenSurvivesSerializationRoundTrip: Frozen ↔ serialized ↔ reference —
// a forest saved, reloaded and frozen predicts bit-identically to the
// original pointer-tree forest.
func TestFrozenSurvivesSerializationRoundTrip(t *testing.T) {
	f, probes := randomForest(t, 99)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	z := loaded.Frozen()
	for pi, x := range probes {
		want := f.PredictProba(x)
		got := z.PredictProba(x, nil)
		for c := range want {
			if !bitEqual(got[c], want[c]) {
				t.Fatalf("probe %d class %d: reloaded frozen %v, original reference %v", pi, c, got[c], want[c])
			}
		}
	}
}

// TestFrozenIndependentOfSource: compiling shares nothing — retraining-style
// mutation of the source trees after Frozen() must not change the engine.
func TestFrozenIndependentOfSource(t *testing.T) {
	f, probes := randomForest(t, 7)
	z := f.Frozen()
	want := make([][]float64, len(probes))
	for i, x := range probes {
		want[i] = append([]float64(nil), z.PredictProba(x, nil)...)
	}
	for _, tr := range f.trees {
		for i := range tr.nodes {
			tr.nodes[i].threshold = math.Inf(-1)
			tr.nodes[i].class = 0
		}
	}
	for i, x := range probes {
		got := z.PredictProba(x, nil)
		for c := range want[i] {
			if !bitEqual(got[c], want[i][c]) {
				t.Fatalf("probe %d class %d changed after source mutation: %v != %v", i, c, got[c], want[i][c])
			}
		}
	}
}

// bitEqual compares float64s by bit pattern, so NaN == NaN and -0 != +0 —
// the strictest form of "exactly equal".
func bitEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
