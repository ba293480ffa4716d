package feature

// Cache-equivalence coverage: the memos (normalized surfaces, table-mention
// scale/precision and line contexts in the Tables, the Jaro-Winkler
// string-pair memo) are pure caches — every cached value must equal the
// direct computation it replaced, for every pair of a realistic generated
// document.

import (
	"math"
	"math/rand"
	"testing"

	"briq/internal/corpus"
	"briq/internal/nlp"
	"briq/internal/quantity"
)

func TestCachedFeaturesMatchDirectComputation(t *testing.T) {
	c := corpus.Generate(corpus.TableLConfig(42, 6))
	pairs := 0
	for _, doc := range c.Docs {
		e := NewExtractor(DefaultConfig(), doc, nil)
		for xi := range doc.TextMentions {
			x := &doc.TextMentions[xi]
			for ti := range doc.TableMentions {
				tm := doc.TableMentions[ti]
				vec := e.Vector(xi, ti)
				pairs++

				// f1 via the memo must equal the direct string computation.
				want := nlp.JaroWinkler(normalizeSurface(x.Surface), normalizeSurface(tm.Surface()))
				if vec[F1SurfaceSim] != want {
					t.Fatalf("doc %s pair (%d,%d): cached f1 %v, direct %v", doc.ID, xi, ti, vec[F1SurfaceSim], want)
				}

				// f9/f10 via the precomputed table-side values.
				if got, want := vec[F9ScaleDiff], absInt(x.Scale-tm.Scale()); got != want {
					t.Fatalf("doc %s pair (%d,%d): cached f9 %v, direct %v", doc.ID, xi, ti, got, want)
				}
				if got, want := vec[F10PrecisionDiff], absInt(x.Precision-tm.Precision()); got != want {
					t.Fatalf("doc %s pair (%d,%d): cached f10 %v, direct %v", doc.ID, xi, ti, got, want)
				}

				// f2 runs on interned sorted-id bags in the hot loop; the
				// direct computation rebuilds both sides as map-backed
				// WeightedBags straight from the document and goes through
				// OverlapCoefficient. Bit-identical, not approximately equal.
				// f4's direct side is the concatenation of the same lines'
				// noun phrases.
				textBag := e.localBag(x.TokenPos)
				tableBag := nlp.WeightedBag{}
				var tableNPs []string
				seenRow, seenCol := map[int]bool{}, map[int]bool{}
				for _, ref := range tm.Cells {
					if !seenRow[ref.Row] {
						seenRow[ref.Row] = true
						for w, weight := range nlp.NewWeightedBag(nlp.Words(tm.Table.RowContext(ref.Row))) {
							tableBag.Add(w, weight)
						}
						tableNPs = append(tableNPs, nlp.NounPhrases(tm.Table.RowContext(ref.Row))...)
					}
					if !seenCol[ref.Col] {
						seenCol[ref.Col] = true
						for w, weight := range nlp.NewWeightedBag(nlp.Words(tm.Table.ColContext(ref.Col))) {
							tableBag.Add(w, weight)
						}
						tableNPs = append(tableNPs, nlp.NounPhrases(tm.Table.ColContext(ref.Col))...)
					}
				}
				if got, want := vec[F2LocalOverlap], nlp.OverlapCoefficient(textBag, tableBag); got != want {
					t.Fatalf("doc %s pair (%d,%d): indexed f2 %v, direct %v", doc.ID, xi, ti, got, want)
				}

				// f4 runs on interned phrase multisets; the direct computation
				// is the reference PhraseOverlap on the raw phrase lists.
				if got, want := vec[F4LocalPhrases], nlp.PhraseOverlap(e.localNPs[xi], tableNPs); got != want {
					t.Fatalf("doc %s pair (%d,%d): indexed f4 %v, direct %v", doc.ID, xi, ti, got, want)
				}

				// f3/f5 hoisted per table, f11 per text mention, f12 per
				// (text mention, Agg) — each against its direct computation.
				// The table's bag and noun phrases live in the Tables.
				tc := e.tables.table(tm.Table)
				if got, want := vec[F3GlobalOverlap], nlp.OverlapCoefficient(e.globalBag, tc.bag); got != want {
					t.Fatalf("doc %s pair (%d,%d): hoisted f3 %v, direct %v", doc.ID, xi, ti, got, want)
				}
				if got, want := vec[F5GlobalPhrases], nlp.PhraseOverlap(e.globalNPs, tc.nps); got != want {
					t.Fatalf("doc %s pair (%d,%d): hoisted f5 %v, direct %v", doc.ID, xi, ti, got, want)
				}
				if got, want := vec[F11Approx], float64(x.Approx)/4; got != want {
					t.Fatalf("doc %s pair (%d,%d): hoisted f11 %v, direct %v", doc.ID, xi, ti, got, want)
				}
				if got, want := vec[F12AggMatch], aggMatch(e.mentionAgg[xi], tm.Agg); got != want {
					t.Fatalf("doc %s pair (%d,%d): hoisted f12 %v, direct %v", doc.ID, xi, ti, got, want)
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("corpus produced no mention pairs")
	}
}

// TestGateSkippedPairsDoNotPerturbCache covers the pre-classifier gate's
// access pattern: the align path computes vectors only for pairs that pass
// the unit-compatibility gate, so an extractor queried for a scattered subset
// of the pair space — through the reused VectorInto buffer of the hot loop —
// must return exactly what a fresh extractor computing every pair returns.
// Stale buffer contents from a previous pair must never leak into a later
// vector, and skipping pairs must not change what the memos cache.
func TestGateSkippedPairsDoNotPerturbCache(t *testing.T) {
	c := corpus.Generate(corpus.TableLConfig(13, 5))
	skipped, computed := 0, 0
	for _, doc := range c.Docs {
		full := NewExtractor(DefaultConfig(), doc, nil)
		gated := NewExtractor(DefaultConfig(), doc, nil)
		// One shared destination buffer, poisoned with NaN between uses so a
		// feature left over from the previous pair cannot go unnoticed.
		dst := make([]float64, NumFeatures)
		for xi := range doc.TextMentions {
			x := &doc.TextMentions[xi]
			for ti, tm := range doc.TableMentions {
				if x.Unit != "" && tm.Unit != "" && !quantity.UnitsCompatible(x.Unit, tm.Unit) {
					skipped++
					continue // the gate: this pair's features are never computed
				}
				computed++
				for i := range dst {
					dst[i] = math.NaN()
				}
				got := gated.VectorInto(xi, ti, dst)
				want := full.Vector(xi, ti)
				for f := range want {
					if got[f] != want[f] {
						t.Fatalf("doc %s pair (%d,%d) feature %s: gated extractor %v, full sweep %v",
							doc.ID, xi, ti, Names[f], got[f], want[f])
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("corpus gate skipped no pairs; subset-access coverage is vacuous")
	}
	if computed == 0 {
		t.Fatal("corpus gate computed no pairs")
	}
	t.Logf("gate pattern: %d computed, %d skipped", computed, skipped)
}

// TestVectorDeterministicAcrossExtractors: two extractors over the same
// document must produce identical vectors — the memos must not leak state
// between instances or depend on fill order.
func TestVectorDeterministicAcrossExtractors(t *testing.T) {
	c := corpus.Generate(corpus.TableLConfig(7, 4))
	for _, doc := range c.Docs {
		a := NewExtractor(DefaultConfig(), doc, nil)
		b := NewExtractor(DefaultConfig(), doc, nil)
		for xi := range doc.TextMentions {
			// Fill b's memo in reverse pair order to vary cache hit patterns.
			for ti := len(doc.TableMentions) - 1; ti >= 0; ti-- {
				bv := b.Vector(xi, ti)
				av := a.Vector(xi, ti)
				for f := range av {
					if av[f] != bv[f] {
						t.Fatalf("doc %s pair (%d,%d) feature %s: %v vs %v",
							doc.ID, xi, ti, Names[f], av[f], bv[f])
					}
				}
			}
		}
	}
}

// TestLazyTableMentionPreparation pins the lazy per-mention preparation: an
// extractor asked for a random subset of pairs, in random order, returns
// vectors bit-identical to an extractor that touched every pair in order —
// interner ids are assigned in a different order, which must not move any
// value — and it never prepares a table mention no requested pair names.
func TestLazyTableMentionPreparation(t *testing.T) {
	c := corpus.Generate(corpus.TableLConfig(23, 5))
	rng := rand.New(rand.NewSource(5))
	requested, unprepared := 0, 0
	for _, doc := range c.Docs {
		full := NewExtractor(DefaultConfig(), doc, nil)
		want := make([][]float64, 0, len(doc.TextMentions)*len(doc.TableMentions))
		for xi := range doc.TextMentions {
			for ti := range doc.TableMentions {
				want = append(want, full.Vector(xi, ti))
			}
		}

		lazy := NewExtractor(DefaultConfig(), doc, nil)
		touched := make([]bool, len(doc.TableMentions))
		dst := make([]float64, NumFeatures)
		for _, k := range rng.Perm(len(want)) {
			if rng.Intn(4) != 0 {
				continue // about a quarter of the pair space is requested
			}
			xi, ti := k/len(doc.TableMentions), k%len(doc.TableMentions)
			touched[ti] = true
			requested++
			got := lazy.VectorInto(xi, ti, dst)
			for f := range got {
				if math.Float64bits(got[f]) != math.Float64bits(want[k][f]) {
					t.Fatalf("doc %s pair (%d,%d) feature %s: lazy %v, full sweep %v",
						doc.ID, xi, ti, Names[f], got[f], want[k][f])
				}
			}
		}
		for ti, td := range lazy.tableData {
			if touched[ti] != (td != nil) {
				t.Fatalf("doc %s table mention %d: requested=%v but prepared=%v", doc.ID, ti, touched[ti], td != nil)
			}
			if td == nil {
				unprepared++
			}
		}
	}
	if requested == 0 || unprepared == 0 {
		t.Fatalf("vacuous: %d pairs requested, %d table mentions left unprepared", requested, unprepared)
	}
	t.Logf("%d pairs requested, %d table mentions never prepared", requested, unprepared)
}
