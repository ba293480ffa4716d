package nlp

import (
	"sort"
	"strings"
)

// JaroSimilarity returns the Jaro similarity of two strings in [0, 1].
// It is the base measure for JaroWinkler below.
func JaroSimilarity(a, b string) float64 {
	if a == b {
		return 1
	}
	la, lb := len(a), len(b)
	if la == 0 || lb == 0 {
		return 0
	}
	matchWindow := maxInt(la, lb)/2 - 1
	if matchWindow < 0 {
		matchWindow = 0
	}
	aMatched := make([]bool, la)
	bMatched := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := maxInt(0, i-matchWindow)
		hi := minInt(lb-1, i+matchWindow)
		for j := lo; j <= hi; j++ {
			if bMatched[j] || a[i] != b[j] {
				continue
			}
			aMatched[i] = true
			bMatched[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among the matched characters.
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatched[i] {
			continue
		}
		for !bMatched[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity of two strings in [0, 1].
// The Winkler adjustment boosts pairs sharing a common prefix (up to 4
// characters, scaling factor 0.1). The paper uses Jaro-Winkler for surface
// form similarity (feature f1) precisely because it emphasizes matches at
// the beginning of the string — "26.7$" is closer to "26.65$" than to
// "29.75$".
func JaroWinkler(a, b string) float64 {
	const (
		prefixScale = 0.1
		maxPrefix   = 4
	)
	j := JaroSimilarity(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < maxPrefix && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*prefixScale*(1-j)
}

// WeightedBag is a bag of words where each word carries a weight. It backs
// the position-weighted overlap coefficients of features f2/f3.
type WeightedBag map[string]float64

// NewWeightedBag builds a bag from words with uniform weight 1, keeping the
// maximum weight for duplicate words.
func NewWeightedBag(words []string) WeightedBag {
	bag := make(WeightedBag, len(words))
	for _, w := range words {
		if bag[w] < 1 {
			bag[w] = 1
		}
	}
	return bag
}

// Add inserts word with the given weight, keeping the maximum weight if the
// word is already present.
func (b WeightedBag) Add(word string, weight float64) {
	if weight < 0 {
		weight = 0
	}
	if b[word] < weight {
		b[word] = weight
	}
}

// Total returns the sum of all weights in the bag. The summands are added in
// sorted order: map iteration order varies between range statements and
// float64 addition is not associative, so a naive accumulation would make
// every downstream feature score differ in the last ulps from run to run —
// breaking the system's bit-for-bit reproducibility.
func (b WeightedBag) Total() float64 {
	vals := make([]float64, 0, len(b))
	for _, w := range b {
		vals = append(vals, w)
	}
	return sumSorted(vals)
}

// sumSorted adds vals in ascending order, giving an order-independent (and
// slightly more accurate) float64 sum. It reorders vals in place.
func sumSorted(vals []float64) float64 {
	sort.Float64s(vals)
	var total float64
	for _, v := range vals {
		total += v
	}
	return total
}

// OverlapCoefficient returns the weighted overlap coefficient between the two
// bags: sum over common words of min(weight_a, weight_b), divided by the
// smaller of the two bags' total weight. Returns 0 when either bag is empty.
func OverlapCoefficient(a, b WeightedBag) float64 {
	ta, tb := a.Total(), b.Total()
	if ta == 0 || tb == 0 {
		return 0
	}
	// Iterate over the smaller bag.
	if len(b) < len(a) {
		a, b = b, a
	}
	var overlaps []float64
	for w, wa := range a {
		if wb, ok := b[w]; ok {
			overlaps = append(overlaps, minFloat(wa, wb))
		}
	}
	// Deterministic sum: see Total.
	return sumSorted(overlaps) / minFloat(ta, tb)
}

// ContentSet is the set of lowercase non-stopword tokens of a text, the
// unit of paragraph↔table relatedness in document segmentation (§III).
// Segmentation builds one per paragraph and one per table, then compares
// each paragraph's set with every table's.
type ContentSet map[string]struct{}

// NewContentSet returns the content set of words after lowercasing and
// stopword removal.
func NewContentSet(words []string) ContentSet {
	set := make(ContentSet, len(words))
	for _, w := range words {
		w = strings.ToLower(w)
		if !Stopword(w) {
			set[w] = struct{}{}
		}
	}
	return set
}

// Jaccard returns the Jaccard similarity |a∩b| / |a∪b| of two content sets,
// and 0 when either is empty.
func (a ContentSet) Jaccard(b ContentSet) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	inter := 0
	for w := range a {
		if _, ok := b[w]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
