// Package filter implements BriQ's adaptive filtering stage (§V): reducing
// the mention-pair candidate space from thousands to the hundreds the global
// resolution step can afford, without discarding good candidates. It applies,
// in order:
//
//  1. tagger-based pruning — aggregate (virtual-cell) pairs survive only when
//     their aggregation matches the text-mention tagger's prediction, while
//     single-cell pairs are never pruned at this step;
//  2. value-difference and unit-mismatch pruning — pairs whose numeric values
//     differ by more than a threshold are dropped unless the classifier is
//     confident, and pairs with contradicting explicit units are dropped;
//  3. per-mention top-k selection adapted to mention type (exact vs
//     approximate/truncated surface forms) and to the entropy of the
//     classifier's score distribution.
//
// # Hot-path note
//
// Mention-type voting compares digit strings of table-mention surfaces, and
// the same table mention is a candidate of many text mentions in one
// document. Apply therefore memoizes digits(Surface()) per table-mention
// index for the duration of the call — virtual mentions rebuild their
// surface string on every Surface() call, so the memo removes the dominant
// repeated cost of the stage. The memo is call-local, so Apply stays safe to
// run concurrently on different documents.
//
// Step 1 and the unit check of step 2 never read the classifier score, and
// the value check of step 2 reads it only to compare it with p. TagPruned,
// UnitPruned and MinScore expose the three rules, so the align path in
// package core never builds a pair that step 1 or the unit check drops,
// and stops the forest walk of a pair with a minimum score once that score
// is out of reach. ApplyTagged takes the tags it already computed instead
// of tagging every text mention again, and its counters (Dropped) count
// only the pairs it is handed.
package filter
