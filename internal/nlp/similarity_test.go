package nlp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestJaroWinklerKnownValues(t *testing.T) {
	tests := []struct {
		a, b string
		want float64
		tol  float64
	}{
		{"MARTHA", "MARHTA", 0.9611, 0.001},
		{"DWAYNE", "DUANE", 0.8400, 0.001},
		{"DIXON", "DICKSONX", 0.8133, 0.001},
		{"", "", 1, 0},
		{"abc", "abc", 1, 0},
		{"abc", "", 0, 0},
		{"", "abc", 0, 0},
	}
	for _, tc := range tests {
		got := JaroWinkler(tc.a, tc.b)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("JaroWinkler(%q,%q) = %.4f, want %.4f", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestJaroWinklerPrefixPreference(t *testing.T) {
	// The paper's motivating case: "26.7$" must be closer to "26.65$" than
	// to "29.75$" because they share a prefix.
	near := JaroWinkler("26.7$", "26.65$")
	far := JaroWinkler("26.7$", "29.75$")
	if near <= far {
		t.Errorf("prefix preference violated: sim(26.7$,26.65$)=%.4f <= sim(26.7$,29.75$)=%.4f", near, far)
	}
}

func TestJaroWinklerProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randStr := func() string {
		n := rng.Intn(12)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(6))
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		a, b := randStr(), randStr()
		s := JaroWinkler(a, b)
		if s < 0 || s > 1 {
			t.Fatalf("JaroWinkler(%q,%q) = %v out of [0,1]", a, b, s)
		}
		if got := JaroWinkler(b, a); math.Abs(got-s) > 1e-12 {
			t.Fatalf("asymmetric: JW(%q,%q)=%v, JW(%q,%q)=%v", a, b, s, b, a, got)
		}
		if a == b && s != 1 {
			t.Fatalf("identity: JW(%q,%q)=%v, want 1", a, b, s)
		}
	}
}

func TestOverlapCoefficient(t *testing.T) {
	a := NewWeightedBag([]string{"net", "income", "2013"})
	b := NewWeightedBag([]string{"income", "taxes", "2013", "2012"})
	// Common: income, 2013 → 2; min total = 3.
	if got, want := OverlapCoefficient(a, b), 2.0/3.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("OverlapCoefficient = %v, want %v", got, want)
	}
}

func TestOverlapCoefficientWeighted(t *testing.T) {
	a := WeightedBag{}
	a.Add("revenue", 1.0)
	a.Add("total", 0.5)
	b := WeightedBag{}
	b.Add("revenue", 1.0)
	b.Add("gross", 1.0)
	// Common weight = 1.0; min(total) = min(1.5, 2.0) = 1.5.
	if got, want := OverlapCoefficient(a, b), 1.0/1.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("weighted OverlapCoefficient = %v, want %v", got, want)
	}
}

func TestOverlapCoefficientEdgeCases(t *testing.T) {
	empty := WeightedBag{}
	full := NewWeightedBag([]string{"x"})
	if got := OverlapCoefficient(empty, full); got != 0 {
		t.Errorf("empty bag overlap = %v, want 0", got)
	}
	if got := OverlapCoefficient(full, full); got != 1 {
		t.Errorf("self overlap = %v, want 1", got)
	}
}

func TestWeightedBagAddKeepsMax(t *testing.T) {
	b := WeightedBag{}
	b.Add("w", 0.3)
	b.Add("w", 0.9)
	b.Add("w", 0.5)
	if b["w"] != 0.9 {
		t.Errorf("Add should keep max weight, got %v", b["w"])
	}
	b.Add("neg", -1)
	if b["neg"] != 0 {
		t.Errorf("negative weights should clamp to 0, got %v", b["neg"])
	}
}

func TestOverlapCoefficientProperties(t *testing.T) {
	check := func(aw, bw []uint8) bool {
		a, b := WeightedBag{}, WeightedBag{}
		for i, w := range aw {
			a.Add(string(rune('a'+i%8)), float64(w%10))
		}
		for i, w := range bw {
			b.Add(string(rune('a'+i%8)), float64(w%10))
		}
		got := OverlapCoefficient(a, b)
		sym := OverlapCoefficient(b, a)
		return got >= 0 && got <= 1+1e-12 && math.Abs(got-sym) < 1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJaccardTokens(t *testing.T) {
	a := NewContentSet([]string{"Total", "Revenue", "income", "the"})
	b := NewContentSet([]string{"revenue", "Income", "taxes", "a"})
	// Content sets: {total, revenue, income} and {revenue, income, taxes};
	// intersection 2, union 4.
	if got, want := a.Jaccard(b), 0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("Jaccard = %v, want %v", got, want)
	}
	if got := NewContentSet(nil).Jaccard(b); got != 0 {
		t.Errorf("Jaccard(nil set, b) = %v, want 0", got)
	}
	if got := NewContentSet([]string{"the", "a"}).Jaccard(b); got != 0 {
		t.Errorf("stopword-only Jaccard = %v, want 0", got)
	}
	if got, want := b.Jaccard(a), a.Jaccard(b); got != want {
		t.Errorf("Jaccard is not symmetric: %v vs %v", got, want)
	}
}

// jaccardTokensReference is the relatedness measure as segmentation
// computed it before content sets: both sets built on every call, as
// map[string]bool.
func jaccardTokensReference(a, b []string) float64 {
	set := func(words []string) map[string]bool {
		s := make(map[string]bool, len(words))
		for _, w := range words {
			w = strings.ToLower(w)
			if !Stopword(w) {
				s[w] = true
			}
		}
		return s
	}
	sa, sb := set(a), set(b)
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	if len(sb) < len(sa) {
		sa, sb = sb, sa
	}
	inter := 0
	for w := range sa {
		if sb[w] {
			inter++
		}
	}
	return float64(inter) / float64(len(sa)+len(sb)-inter)
}

// TestJaccardMatchesReference requires content-set Jaccard to return the
// reference's float, bit for bit, on random token lists drawn from a small
// vocabulary with stopwords and mixed case.
func TestJaccardMatchesReference(t *testing.T) {
	vocab := []string{"the", "a", "of", "Revenue", "revenue", "income", "Total", "2013", "sales", "USD", "profit", "and"}
	draw := func(rng *rand.Rand) []string {
		out := make([]string, rng.Intn(12))
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		a, b := draw(rng), draw(rng)
		got := NewContentSet(a).Jaccard(NewContentSet(b))
		if want := jaccardTokensReference(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Jaccard(%q, %q) = %v, reference %v", a, b, got, want)
		}
	}
}

// TestWeightedBagSumsDeterministic guards the sorted-summand accumulation in
// Total and OverlapCoefficient: map iteration order changes between range
// statements, and with non-dyadic weights a naive sum differs in the last
// ulps across calls, which cascades into run-to-run differences in pipeline
// scores.
func TestWeightedBagSumsDeterministic(t *testing.T) {
	a, b := WeightedBag{}, WeightedBag{}
	for i := 0; i < 60; i++ {
		w := 1 - float64(i%7)/3*0.31 // deliberately inexact weights
		if w < 0.05 {
			w = 0.05
		}
		a.Add(fmt.Sprintf("w%02d", i), w)
		if i%2 == 0 {
			b.Add(fmt.Sprintf("w%02d", i), w*0.9)
		}
	}
	wantTotal := a.Total()
	wantOverlap := OverlapCoefficient(a, b)
	for i := 0; i < 200; i++ {
		if got := a.Total(); got != wantTotal {
			t.Fatalf("Total varies across calls: %v vs %v", got, wantTotal)
		}
		if got := OverlapCoefficient(a, b); got != wantOverlap {
			t.Fatalf("OverlapCoefficient varies across calls: %v vs %v", got, wantOverlap)
		}
	}
}
