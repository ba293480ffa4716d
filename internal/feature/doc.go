// Package feature computes the mention-pair features f1–f12 of §IV-B: one
// surface-form feature, five context features and six quantity features for
// each candidate (text mention, table mention) pair. Categorical features
// are encoded as ordinal levels so threshold splits in the Random Forest
// remain meaningful.
//
// # Page-scope caches
//
// An Extractor scores up to every (text, table) pair of its document —
// |X|·|T| vectors — so per-mention work must not be redone per pair.
// NewExtractor precomputes the text side (context bags, noun phrases,
// normalized surfaces, f11/f12 per text mention) and the f3/f5 overlaps of
// each of the document's tables against its text.
//
// The table side lives in a Tables. A table mention's features depend on
// its table and the rows and columns its cells lie in, never on the
// document, and the documents of one page share their tables and table
// mentions. So the extractors of a page share one Tables
// (core.Pipeline.AlignPageContext makes one per page); NewExtractor with a
// nil Tables makes a private one. A Tables prepares, each once:
//
//   - the word, phrase and surface interners both sides go through;
//   - each table's bag of words and noun phrases (the table side of f3/f5);
//   - each row's and column's interned bag and phrase multiset;
//   - one local context per distinct line set — a table plus the rows and
//     columns a mention's cells lie in — merged from its lines and shared
//     by every mention on the same set (f2, f4);
//   - each table mention's normalized surface and its id, scale,
//     precision and raw value (f1, f7, f9, f10) — virtual table mentions
//     otherwise rebuild their surface on every Surface() call.
//
// A table mention is prepared on the first VectorInto that names it, by
// any extractor sharing the Tables. The align path gates most virtual
// mentions out before classification, so preparing lazily means those
// mentions cost nothing here. Neither the order of preparation nor the
// sharing changes any value (see Tables.mention).
//
// Jaro–Winkler similarity (f1) is additionally memoized per string pair
// (simMemo): distinct mentions frequently share a normalized surface, and
// the similarity is a pure function of the two strings. All caches are
// equivalence-tested against the direct computation (cache_test.go) and
// against private extractors (tables_test.go) — an Extractor is a
// performance shape, never a semantic one.
//
// Extractors and Tables are single-goroutine: the extractors sharing a
// Tables run one after another, and pipelines that align documents on
// several workers give each extractor its own Tables.
package feature
