package forest

// Fuzz harnesses for the model (de)serialization boundary and for the vote
// floors of the batch walk. Load consumes model files shipped to replicas
// and handed over the persist API, so it must hold two properties under
// arbitrary bytes: malformed input errors — never panics, never hangs the
// prediction walk (the forward-children invariant) — and anything it
// accepts behaves like a real model: it round-trips through Save
// bit-identically and its Frozen compilation agrees with the pointer-tree
// reference. Load reads Save's form in one pass (Parse) and everything else
// through json.Decoder (decode); the two must agree wherever Parse accepts.
// Seed corpus: a valid trained model plus structural mutations, committed
// under testdata/fuzz.

import (
	"bytes"
	"math"
	"testing"

	"briq/internal/jsonread"
)

func fuzzSeedModel(tb testing.TB) []byte {
	tb.Helper()
	samples := []Sample{
		{Features: []float64{0, 0, 1}, Label: 0},
		{Features: []float64{0, 1, 0}, Label: 1},
		{Features: []float64{1, 0, 0}, Label: 1},
		{Features: []float64{1, 1, 1}, Label: 0},
		{Features: []float64{0.5, 0.2, 0.9}, Label: 0},
		{Features: []float64{0.9, 0.8, 0.1}, Label: 1},
	}
	f, err := Train(samples, 2, Config{Trees: 3, MaxDepth: 3, MinLeaf: 1, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzLoad(f *testing.F) {
	valid := fuzzSeedModel(f)
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"classes":2,"n_features":1,"trees":[[]]}`))
	// A would-be cycle: node 0 splits to node 1, node 1 points back to 0.
	// Load must reject it (forward-children invariant) or predict would spin.
	f.Add([]byte(`{"version":1,"classes":2,"n_features":1,"trees":[[{"f":0,"t":0.5,"l":1,"r":1,"c":0},{"f":0,"t":0.5,"l":0,"r":0,"c":1}]]}`))
	// Implausible header dimensions.
	f.Add([]byte(`{"version":1,"classes":1000000000,"n_features":1,"trees":[[{"f":-1,"c":0}]]}`))

	// A one-leaf model with white space and with its keys reordered; the
	// valid model followed by bytes json.Decoder leaves unread, and with an
	// unknown key.
	f.Add([]byte(` { "version" : 1 , "classes":2,"n_features":1,"trees":[ [ {"f":-1,"c":0} ] ] } `))
	f.Add([]byte(`{"classes":2,"version":1,"n_features":1,"trees":[[{"c":0,"f":-1}]]}`))
	f.Add(append(append([]byte{}, valid...), "garbage"...))
	f.Add(append(append([]byte{}, valid[:len(valid)-2]...), `,"x":1}`...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The one-pass reader may decline an input, but never disagree with
		// json.Decoder: what it accepts, the decoder accepts as the same
		// forest.
		if got, ok := Parse(jsonread.New(data)); ok {
			want, err := decode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("Parse accepted what json.Decoder rejects: %v", err)
			}
			var g, w bytes.Buffer
			if err := got.Save(&g); err != nil {
				t.Fatal(err)
			}
			if err := want.Save(&w); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.Bytes(), w.Bytes()) {
				t.Fatalf("Parse and json.Decoder read different forests:\n%s\n%s", g.Bytes(), w.Bytes())
			}
		}

		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, and did
		}

		// Accepted models must round-trip: Save then Load yields a forest
		// whose serialized form is byte-identical.
		var first bytes.Buffer
		if err := loaded.Save(&first); err != nil {
			t.Fatalf("accepted model does not save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("accepted model does not reload: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("reloaded model does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save → Load → Save is not a fixed point")
		}

		// Frozen ↔ reference: the flat engine compiled from an accepted model
		// must predict bit-identically to the pointer walker. Keep the probe
		// budget bounded for high-dimensional headers.
		if loaded.NumFeatures() > 4096 || loaded.Classes() > 4096 {
			return
		}
		z := loaded.Frozen()
		for _, fill := range []float64{0, -1, 1, 0.5, 1e12, math.Inf(1), math.NaN()} {
			x := make([]float64, loaded.NumFeatures())
			for i := range x {
				x[i] = fill
			}
			want := loaded.PredictProba(x)
			got := z.PredictProba(x, nil)
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("probe fill %v class %d: frozen %v, reference %v", fill, c, got[c], want[c])
				}
			}
		}
	})
}

// FuzzPositiveProbaBatch: two rows of arbitrary values with arbitrary vote
// floors, scored in one batch over a small seeded binary forest, keep the
// floor contract of checkFloors — a floored row scores below floor/trees
// exactly when its full score does, and bit-identically otherwise.
func FuzzPositiveProbaBatch(f *testing.F) {
	samples := make([]Sample, 0, 64)
	for i := 0; i < 64; i++ {
		a, b, c := float64(i%8)/8, float64(i%5)/5, float64(i%3)/3
		label := 0
		if a+b > c+0.4 {
			label = 1
		}
		samples = append(samples, Sample{Features: []float64{a, b, c}, Label: label})
	}
	forest, err := Train(samples, 2, Config{Trees: 15, MaxDepth: 4, MinLeaf: 1, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	z := forest.Frozen()
	f.Add(0.5, 0.5, 0.5, int32(0), 0.9, 0.1, 0.2, int32(8))
	f.Add(0.0, 1.0, 0.0, int32(15), 1.0, 1.0, 0.0, int32(16))
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), int32(-3), 1e300, -1e300, 0.0, int32(1<<30))
	f.Fuzz(func(t *testing.T, x0, x1, x2 float64, f0 int32, y0, y1, y2 float64, f1 int32) {
		rows := [][]float64{{x0, x1, x2}, {y0, y1, y2}}
		checkFloors(t, forest, z, rows, []int32{f0, f1})
	})
}
