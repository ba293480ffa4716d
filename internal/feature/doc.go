// Package feature computes the mention-pair features f1–f12 of §IV-B: one
// surface-form feature, five context features and six quantity features for
// each candidate (text mention, table mention) pair. Categorical features
// are encoded as ordinal levels so threshold splits in the Random Forest
// remain meaningful.
//
// # Per-document caches
//
// An Extractor scores up to every (text, table) pair of its document —
// |X|·|T| vectors — so per-mention work must not be redone per pair.
// NewExtractor precomputes the text side (context bags, noun phrases,
// normalized surfaces, f11/f12 per text mention) and the per-table f3/f5
// constants. Each table mention is prepared on its first VectorInto and
// cached from then on:
//
//   - its normalized surface string (tableMentionData.normSurface) — virtual
//     table mentions otherwise rebuild their surface on every Surface() call;
//   - its scale and precision, consumed by f9/f10;
//   - its row/column context bags and noun phrases, built per table line and
//     shared by every mention on that line.
//
// The align path gates most virtual mentions out before classification, so
// preparing lazily means those mentions cost nothing here. The order of
// preparation does not change any value (see tableMention).
//
// Jaro–Winkler similarity (f1) is additionally memoized per string pair
// (simMemo): distinct mentions frequently share a normalized surface, and
// the similarity is a pure function of the two strings. All caches are
// equivalence-tested against the direct computation (cache_test.go) — an
// Extractor is a performance shape, never a semantic one.
//
// An Extractor is single-goroutine; pipelines share documents across workers
// by giving each worker its own Extractor.
package feature
