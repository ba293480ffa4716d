package nlp

import "sort"

// Indexed bags are the hot-loop form of WeightedBag. The classify stage
// evaluates the f2 overlap for every mention×candidate pair, and the map-based
// OverlapCoefficient pays hashing and a full Total() recomputation per call.
// An IndexedBag interns words to dense int32 ids once per document, keeps the
// (id, weight) pairs sorted by id, and precomputes the bag total, so the
// per-pair overlap reduces to a linear merge scan over two sorted slices.
//
// Equivalence contract: every IndexedBag operation reproduces its WeightedBag
// counterpart bit for bit. Totals and overlap numerators go through the same
// sumSorted as WeightedBag.Total/OverlapCoefficient, so the floating-point
// accumulation order — and therefore every downstream feature score — is
// unchanged. similarity_test.go pins this with property-style comparisons.

// Interner assigns dense int32 ids to words. The zero value is not usable;
// call NewInterner. Ids are assignment-ordered, so two bags indexed through
// the same Interner are comparable while ids from different Interners are not.
type Interner struct {
	ids map[string]int32
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int32)}
}

// ID returns the id for word, assigning the next free one on first sight.
func (in *Interner) ID(word string) int32 {
	if id, ok := in.ids[word]; ok {
		return id
	}
	id := int32(len(in.ids))
	in.ids[word] = id
	return id
}

// IndexedBag is a WeightedBag compiled against an Interner: ids sorted
// ascending, weights parallel, total precomputed. Immutable after
// construction; safe for concurrent reads.
type IndexedBag struct {
	IDs     []int32
	Weights []float64
	Total   float64
}

// IndexBag compiles bag through the interner. The Total field is computed by
// the same sorted summation as WeightedBag.Total, so it is bit-identical.
func IndexBag(b WeightedBag, in *Interner) IndexedBag {
	out := IndexedBag{
		IDs:     make([]int32, 0, len(b)),
		Weights: make([]float64, 0, len(b)),
	}
	for w := range b {
		out.IDs = append(out.IDs, in.ID(w))
	}
	sort.Slice(out.IDs, func(i, j int) bool { return out.IDs[i] < out.IDs[j] })
	// Re-resolve weights in id order. The interner map lookup per word is
	// construction-time cost, paid once per bag, not per pair.
	byID := make(map[int32]float64, len(b))
	for w, weight := range b {
		byID[in.ids[w]] = weight
	}
	for _, id := range out.IDs {
		out.Weights = append(out.Weights, byID[id])
	}
	vals := make([]float64, len(out.Weights))
	copy(vals, out.Weights)
	out.Total = sumSorted(vals)
	return out
}

// MergeIndexed returns the max-weight union of bags indexed through one
// Interner — the indexed counterpart of merging WeightedBags through Add —
// with the total summed once over the union's weights (same sorted
// summation as WeightedBag.Total). The union does not depend on the order
// of bags.
func MergeIndexed(bags ...IndexedBag) IndexedBag {
	n := 0
	for _, b := range bags {
		n += len(b.IDs)
	}
	out := IndexedBag{IDs: make([]int32, 0, n), Weights: make([]float64, 0, n)}
	tmp := IndexedBag{IDs: make([]int32, 0, n), Weights: make([]float64, 0, n)}
	for _, b := range bags {
		tmp.IDs, tmp.Weights = mergeMax(tmp.IDs[:0], tmp.Weights[:0], out, b)
		out, tmp = tmp, out
	}
	out.Total = sumSorted(append(tmp.Weights[:0], out.Weights...))
	return out
}

// mergeMax appends the max-weight union of a and b to ids and weights.
func mergeMax(ids []int32, weights []float64, a, b IndexedBag) ([]int32, []float64) {
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			ids = append(ids, a.IDs[i])
			weights = append(weights, a.Weights[i])
			i++
		case a.IDs[i] > b.IDs[j]:
			ids = append(ids, b.IDs[j])
			weights = append(weights, b.Weights[j])
			j++
		default:
			ids = append(ids, a.IDs[i])
			weights = append(weights, maxFloat(a.Weights[i], b.Weights[j]))
			i++
			j++
		}
	}
	ids = append(append(ids, a.IDs[i:]...), b.IDs[j:]...)
	weights = append(append(weights, a.Weights[i:]...), b.Weights[j:]...)
	return ids, weights
}

// IndexedOverlap returns the weighted overlap coefficient of two bags indexed
// through the same Interner, bit-identical to OverlapCoefficient on the
// corresponding WeightedBags: the common-word minimum weights form the same
// multiset, summed by the same sumSorted, divided by the same minimum total.
// scratch backs the intersection buffer; the (possibly grown) slice is
// returned for reuse so the per-pair loop stays allocation-free.
func IndexedOverlap(a, b IndexedBag, scratch []float64) (float64, []float64) {
	if a.Total == 0 || b.Total == 0 {
		return 0, scratch
	}
	overlaps := scratch[:0]
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			i++
		case a.IDs[i] > b.IDs[j]:
			j++
		default:
			overlaps = append(overlaps, minFloat(a.Weights[i], b.Weights[j]))
			i++
			j++
		}
	}
	return sumSorted(overlaps) / minFloat(a.Total, b.Total), overlaps
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// PhraseInterner assigns dense ids to noun phrases and their head words so
// that the per-pair f4 overlap runs on sorted id slices. Phrase ids and head
// ids live in separate id spaces; HeadOf maps the former to the latter.
type PhraseInterner struct {
	phrases *Interner
	heads   *Interner
	headOf  []int32 // phrase id → head id
}

// NewPhraseInterner returns an empty phrase interner.
func NewPhraseInterner() *PhraseInterner {
	return &PhraseInterner{phrases: NewInterner(), heads: NewInterner()}
}

// NumHeads returns the number of distinct head words seen so far — the
// required length of the matched-per-head scratch in PhraseOverlapIndexed.
func (pi *PhraseInterner) NumHeads() int { return len(pi.heads.ids) }

// IndexedPhrases is a noun-phrase multiset compiled against a PhraseInterner:
// phrase (id, count) pairs sorted by id, head (id, total count) pairs sorted
// by id, and the multiset size. Immutable after construction.
type IndexedPhrases struct {
	IDs        []int32
	Counts     []int32
	HeadIDs    []int32
	HeadCounts []int32
	N          int
}

// IndexPhrases compiles a phrase list through the interner.
func (pi *PhraseInterner) IndexPhrases(phrases []string) IndexedPhrases {
	counts := make(map[int32]int32, len(phrases))
	headCounts := make(map[int32]int32, len(phrases))
	for _, p := range phrases {
		id := pi.phrases.ID(p)
		if int(id) == len(pi.headOf) {
			pi.headOf = append(pi.headOf, pi.heads.ID(phraseHead(p)))
		}
		counts[id]++
		headCounts[pi.headOf[id]]++
	}
	out := IndexedPhrases{N: len(phrases)}
	out.IDs, out.Counts = sortedCounts(counts)
	out.HeadIDs, out.HeadCounts = sortedCounts(headCounts)
	return out
}

func sortedCounts(m map[int32]int32) ([]int32, []int32) {
	ids := make([]int32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	counts := make([]int32, len(ids))
	for i, id := range ids {
		counts[i] = m[id]
	}
	return ids, counts
}

// MergePhrases returns the multiset sum of phrase lists indexed through
// one PhraseInterner: exactly IndexPhrases of their concatenation, without
// interning any phrase again.
func MergePhrases(lists ...IndexedPhrases) IndexedPhrases {
	n, h := 0, 0
	for _, l := range lists {
		n += len(l.IDs)
		h += len(l.HeadIDs)
	}
	out := IndexedPhrases{
		IDs: make([]int32, 0, n), Counts: make([]int32, 0, n),
		HeadIDs: make([]int32, 0, h), HeadCounts: make([]int32, 0, h),
	}
	tmp := IndexedPhrases{
		IDs: make([]int32, 0, n), Counts: make([]int32, 0, n),
		HeadIDs: make([]int32, 0, h), HeadCounts: make([]int32, 0, h),
	}
	for _, l := range lists {
		tmp.IDs, tmp.Counts = sumCounts(tmp.IDs[:0], tmp.Counts[:0], out.IDs, out.Counts, l.IDs, l.Counts)
		tmp.HeadIDs, tmp.HeadCounts = sumCounts(tmp.HeadIDs[:0], tmp.HeadCounts[:0],
			out.HeadIDs, out.HeadCounts, l.HeadIDs, l.HeadCounts)
		tmp.N = out.N + l.N
		out, tmp = tmp, out
	}
	return out
}

// sumCounts appends to ids and counts the union of two sorted (id, count)
// lists, adding the counts of ids both name.
func sumCounts(ids, counts, aIDs, aCounts, bIDs, bCounts []int32) ([]int32, []int32) {
	i, j := 0, 0
	for i < len(aIDs) && j < len(bIDs) {
		switch {
		case aIDs[i] < bIDs[j]:
			ids = append(ids, aIDs[i])
			counts = append(counts, aCounts[i])
			i++
		case aIDs[i] > bIDs[j]:
			ids = append(ids, bIDs[j])
			counts = append(counts, bCounts[j])
			j++
		default:
			ids = append(ids, aIDs[i])
			counts = append(counts, aCounts[i]+bCounts[j])
			i++
			j++
		}
	}
	ids = append(append(ids, aIDs[i:]...), bIDs[j:]...)
	counts = append(append(counts, aCounts[i:]...), bCounts[j:]...)
	return ids, counts
}

// PhraseOverlapIndexed returns PhraseOverlap on two phrase lists indexed
// through the same PhraseInterner — exactly equal, not approximately: both
// passes of the greedy reference reduce to count arithmetic. Pass 1's greedy
// exact matching consumes min(countA, countB) per distinct phrase; pass 2's
// head matching on the leftovers consumes min(remainderA, remainderB) per
// distinct head, where each exact match removed one phrase of that head from
// both sides. matched is the per-head scratch (NumHeads long, all zero on
// entry and reset to zero on exit) and touched its dirty list; both are
// returned, possibly regrown, for reuse.
func PhraseOverlapIndexed(pi *PhraseInterner, a, b IndexedPhrases, matched []int32, touched []int32) (float64, []int32, []int32) {
	if a.N == 0 || b.N == 0 {
		return 0, matched, touched
	}
	if need := pi.NumHeads(); cap(matched) < need {
		matched = make([]int32, need)
	} else {
		matched = matched[:need]
	}
	touched = touched[:0]
	headOf := pi.headOf
	m := int32(0)
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] < b.IDs[j]:
			i++
		case a.IDs[i] > b.IDs[j]:
			j++
		default:
			c := a.Counts[i]
			if b.Counts[j] < c {
				c = b.Counts[j]
			}
			m += c
			h := headOf[a.IDs[i]]
			if matched[h] == 0 {
				touched = append(touched, h)
			}
			matched[h] += c
			i++
			j++
		}
	}
	i, j = 0, 0
	for i < len(a.HeadIDs) && j < len(b.HeadIDs) {
		switch {
		case a.HeadIDs[i] < b.HeadIDs[j]:
			i++
		case a.HeadIDs[i] > b.HeadIDs[j]:
			j++
		default:
			h := a.HeadIDs[i]
			remA := a.HeadCounts[i] - matched[h]
			remB := b.HeadCounts[j] - matched[h]
			if remA > 0 && remB > 0 {
				if remA < remB {
					m += remA
				} else {
					m += remB
				}
			}
			i++
			j++
		}
	}
	for _, h := range touched {
		matched[h] = 0
	}
	n := a.N
	if b.N < n {
		n = b.N
	}
	return float64(m) / float64(n), matched, touched
}
