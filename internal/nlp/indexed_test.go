package nlp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomBag builds a deterministic random WeightedBag over a small shared
// vocabulary so that overlaps are common.
func randomBag(rng *rand.Rand) WeightedBag {
	vocab := []string{
		"revenue", "income", "net", "total", "growth", "billion", "million",
		"cdn", "usd", "year", "quarter", "2013", "operating", "margin",
	}
	bag := WeightedBag{}
	n := rng.Intn(len(vocab) + 1)
	for i := 0; i < n; i++ {
		bag.Add(vocab[rng.Intn(len(vocab))], rng.Float64())
	}
	return bag
}

func TestIndexedBagTotalBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := NewInterner()
	for i := 0; i < 200; i++ {
		bag := randomBag(rng)
		ib := IndexBag(bag, in)
		if math.Float64bits(ib.Total) != math.Float64bits(bag.Total()) {
			t.Fatalf("case %d: indexed total %v != map total %v", i, ib.Total, bag.Total())
		}
		if len(ib.IDs) != len(bag) {
			t.Fatalf("case %d: %d ids for %d words", i, len(ib.IDs), len(bag))
		}
		for j := 1; j < len(ib.IDs); j++ {
			if ib.IDs[j-1] >= ib.IDs[j] {
				t.Fatalf("case %d: ids not strictly ascending: %v", i, ib.IDs)
			}
		}
	}
}

func TestIndexedOverlapBitIdenticalToOverlapCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := NewInterner()
	var scratch []float64
	for i := 0; i < 500; i++ {
		a, b := randomBag(rng), randomBag(rng)
		ia, ib := IndexBag(a, in), IndexBag(b, in)
		want := OverlapCoefficient(a, b)
		var got float64
		got, scratch = IndexedOverlap(ia, ib, scratch)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: IndexedOverlap %v != OverlapCoefficient %v", i, got, want)
		}
	}
}

func TestMergeIndexedMatchesMapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := NewInterner()
	for i := 0; i < 200; i++ {
		a, b := randomBag(rng), randomBag(rng)
		merged := WeightedBag{}
		for w, weight := range a {
			merged.Add(w, weight)
		}
		for w, weight := range b {
			merged.Add(w, weight)
		}
		got := MergeIndexed(IndexBag(a, in), IndexBag(b, in))
		want := IndexBag(merged, in)
		if fmt.Sprint(got.IDs) != fmt.Sprint(want.IDs) {
			t.Fatalf("case %d: merged ids %v != %v", i, got.IDs, want.IDs)
		}
		for j := range got.Weights {
			if math.Float64bits(got.Weights[j]) != math.Float64bits(want.Weights[j]) {
				t.Fatalf("case %d: weight[%d] %v != %v", i, j, got.Weights[j], want.Weights[j])
			}
		}
		if math.Float64bits(got.Total) != math.Float64bits(want.Total) {
			t.Fatalf("case %d: merged total %v != %v", i, got.Total, want.Total)
		}
	}
}

// TestMergeIndexedManyMatchesMapMerge folds up to six bags at once, in two
// orders: the union and its total must equal the map merge's bit for bit
// whatever the order.
func TestMergeIndexedManyMatchesMapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	in := NewInterner()
	for i := 0; i < 200; i++ {
		bags := make([]WeightedBag, rng.Intn(7))
		indexed := make([]IndexedBag, len(bags))
		merged := WeightedBag{}
		for k := range bags {
			bags[k] = randomBag(rng)
			indexed[k] = IndexBag(bags[k], in)
			for w, weight := range bags[k] {
				merged.Add(w, weight)
			}
		}
		want := IndexBag(merged, in)
		reversed := make([]IndexedBag, len(indexed))
		for k := range indexed {
			reversed[len(indexed)-1-k] = indexed[k]
		}
		for _, got := range []IndexedBag{MergeIndexed(indexed...), MergeIndexed(reversed...)} {
			if fmt.Sprint(got.IDs) != fmt.Sprint(want.IDs) {
				t.Fatalf("case %d: merged ids %v != %v", i, got.IDs, want.IDs)
			}
			for j := range got.Weights {
				if math.Float64bits(got.Weights[j]) != math.Float64bits(want.Weights[j]) {
					t.Fatalf("case %d: weight[%d] %v != %v", i, j, got.Weights[j], want.Weights[j])
				}
			}
			if math.Float64bits(got.Total) != math.Float64bits(want.Total) {
				t.Fatalf("case %d: merged total %v != %v", i, got.Total, want.Total)
			}
		}
	}
}

// randomPhrases builds a deterministic random phrase multiset over a small
// shared vocabulary with overlapping heads, so both matching passes of
// PhraseOverlap are exercised.
func randomPhrases(rng *rand.Rand) []string {
	vocab := []string{
		"net income", "annual net income", "total revenue", "revenue",
		"operating margin", "gross margin", "fiscal year", "prior year",
		"net margin", "income", "quarterly revenue",
	}
	n := rng.Intn(7)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, vocab[rng.Intn(len(vocab))])
	}
	return out
}

func TestPhraseOverlapIndexedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pi := NewPhraseInterner()
	var matched, touched []int32
	for i := 0; i < 1000; i++ {
		a, b := randomPhrases(rng), randomPhrases(rng)
		ia, ib := pi.IndexPhrases(a), pi.IndexPhrases(b)
		want := PhraseOverlap(a, b)
		var got float64
		got, matched, touched = PhraseOverlapIndexed(pi, ia, ib, matched, touched)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: indexed %v != reference %v for a=%v b=%v", i, got, want, a, b)
		}
		for h, v := range matched {
			if v != 0 {
				t.Fatalf("case %d: matched[%d]=%d not reset", i, h, v)
			}
		}
	}
}

// TestMergePhrasesMatchesIndexPhrases: merging separately indexed phrase
// lists equals indexing their concatenation through the same interner.
func TestMergePhrasesMatchesIndexPhrases(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pi := NewPhraseInterner()
	for i := 0; i < 500; i++ {
		var all []string
		lists := make([]IndexedPhrases, rng.Intn(5))
		for k := range lists {
			l := randomPhrases(rng)
			all = append(all, l...)
			lists[k] = pi.IndexPhrases(l)
		}
		got, want := MergePhrases(lists...), pi.IndexPhrases(all)
		if fmt.Sprint(got.IDs, got.Counts, got.HeadIDs, got.HeadCounts, got.N) !=
			fmt.Sprint(want.IDs, want.Counts, want.HeadIDs, want.HeadCounts, want.N) {
			t.Fatalf("case %d: merged %+v, indexed concatenation %+v", i, got, want)
		}
	}
}

func TestIndexedOverlapEmpty(t *testing.T) {
	in := NewInterner()
	empty := IndexBag(WeightedBag{}, in)
	full := IndexBag(NewWeightedBag([]string{"a", "b"}), in)
	if got, _ := IndexedOverlap(empty, full, nil); got != 0 {
		t.Fatalf("overlap with empty bag = %v, want 0", got)
	}
	if got, _ := IndexedOverlap(full, full, nil); got != 1 {
		t.Fatalf("self overlap = %v, want 1", got)
	}
}
