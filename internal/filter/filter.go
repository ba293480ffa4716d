package filter

import (
	"sort"
	"strings"

	"briq/internal/document"
	"briq/internal/mlmetrics"
	"briq/internal/quantity"
	"briq/internal/table"
	"briq/internal/tagger"
)

// Candidate is one scored mention pair: text mention xi ↔ table mention ti.
type Candidate struct {
	Text  int     // index into doc.TextMentions
	Table int     // index into doc.TableMentions
	Score float64 // classifier confidence σ (prior for global resolution)
}

// MentionType classifies how a text mention's surface relates to table
// surfaces (§V-B).
type MentionType int

// Mention types.
const (
	Exact MentionType = iota
	Approximate
	Truncated
)

// String returns the lowercase mention-type name.
func (t MentionType) String() string {
	switch t {
	case Exact:
		return "exact"
	case Approximate:
		return "approximate"
	default:
		return "truncated"
	}
}

// Config holds the filtering thresholds; v, p and the four k values are
// tuned on the validation split (§V-B).
type Config struct {
	// ValueDiffMax is v: pairs with relative value difference above it are
	// pruned when the classifier score is below MinScoreLooseValue (p).
	ValueDiffMax float64
	// MinScoreLooseValue is p.
	MinScoreLooseValue float64
	// KExact / KApprox are the top-k caps by mention type.
	KExact, KApprox int
	// EntropyThreshold splits skewed from near-uniform score distributions
	// (normalized entropy in [0,1]).
	EntropyThreshold float64
	// KSmall / KLarge are the entropy-dependent caps (ks, kl).
	KSmall, KLarge int
	// HighConfidence is the score above which a pair's table surface votes
	// on the mention type.
	HighConfidence float64
}

// DefaultConfig returns the pre-tuning defaults.
func DefaultConfig() Config {
	return Config{
		ValueDiffMax:       0.35,
		MinScoreLooseValue: 0.55,
		KExact:             4,
		KApprox:            8,
		EntropyThreshold:   0.55,
		KSmall:             2,
		KLarge:             12,
		HighConfidence:     0.5,
	}
}

// Result is the outcome of filtering one document.
type Result struct {
	Kept  []Candidate
	Types map[int]MentionType  // mention type per text-mention index
	Tags  map[int]quantity.Agg // tagger prediction per text-mention index
	// Dropped is the number of candidates passed in that were pruned; a
	// caller that never builds a pair does not count it here.
	Dropped int
}

// TagPruned reports whether step 1 drops a pair of table mention tm with a
// text mention tagged tag: the table mention is virtual and its aggregation
// differs from the tag. The classifier score plays no part.
func TagPruned(tm *table.Mention, tag quantity.Agg) bool {
	return tm.IsVirtual() && tm.Agg != tag
}

// UnitPruned reports whether step 2 drops a pair whatever its classifier
// score: units are specified on both sides and incompatible.
func UnitPruned(x *quantity.Mention, tm *table.Mention) bool {
	return x.Unit != "" && tm.Unit != "" && !quantity.UnitsCompatible(x.Unit, tm.Unit)
}

// MinScore reports the classifier score a pair of text mention x and table
// mention tm must reach to survive the value check of step 2: when their
// relative value difference exceeds cfg.ValueDiffMax (v), the pair is
// dropped unless its score reaches cfg.MinScoreLooseValue (p). ok is false
// when the value check keeps the pair whatever its score.
func MinScore(cfg Config, x *quantity.Mention, tm *table.Mention) (score float64, ok bool) {
	if quantity.RelativeDifference(x.Value, tm.Value) > cfg.ValueDiffMax {
		return cfg.MinScoreLooseValue, true
	}
	return 0, false
}

// Apply filters the candidates of one document. The tagger tags each text
// mention; candidates must carry classifier scores.
func Apply(cfg Config, doc *document.Document, tag tagger.Tagger, candidates []Candidate) Result {
	return ApplyTagged(cfg, doc, tagger.TagAll(tag, doc), candidates)
}

// ApplyTagged is Apply with the tagger's predictions already computed:
// tags[xi] is the predicted aggregation of text mention xi. The align path
// tags once before classification, builds only the pairs that step 1 and
// the unit check of step 2 keep, and hands the same tags here. A text
// mention with no candidate gets no entry in Types or Tags.
func ApplyTagged(cfg Config, doc *document.Document, tags []quantity.Agg, candidates []Candidate) Result {
	res := Result{
		Types: make(map[int]MentionType),
		Tags:  make(map[int]quantity.Agg),
	}

	// Group candidates by text mention.
	byText := make(map[int][]Candidate)
	for _, c := range candidates {
		byText[c.Text] = append(byText[c.Text], c)
	}

	// Digit strings of table-mention surfaces, memoized per document: the
	// same table mention is a candidate of many text mentions, and virtual
	// mentions rebuild their surface string on every Surface() call.
	tableDigits := make(map[int]string)
	tableDigitsOf := func(ti int) string {
		if d, ok := tableDigits[ti]; ok {
			return d
		}
		d := digits(doc.TableMentions[ti].Surface())
		tableDigits[ti] = d
		return d
	}

	total := 0
	for xi, group := range byText {
		total += len(group)
		predicted := tags[xi]
		res.Tags[xi] = predicted

		// Step 1: tagger-based pruning of aggregate pairs.
		step1 := group[:0]
		for _, c := range group {
			if TagPruned(doc.TableMentions[c.Table], predicted) {
				continue
			}
			step1 = append(step1, c)
		}

		// Step 2: value-difference and unit-mismatch pruning.
		x := &doc.TextMentions[xi]
		step2 := step1[:0]
		for _, c := range step1 {
			tm := doc.TableMentions[c.Table]
			if floor, ok := MinScore(cfg, x, tm); ok && c.Score < floor {
				continue
			}
			if UnitPruned(x, tm) {
				continue
			}
			step2 = append(step2, c)
		}

		// Step 3: adaptive top-k.
		sort.Slice(step2, func(i, j int) bool {
			if step2[i].Score != step2[j].Score {
				return step2[i].Score > step2[j].Score
			}
			return step2[i].Table < step2[j].Table // deterministic tie-break
		})

		mt := mentionType(doc, xi, step2, cfg.HighConfidence, tableDigitsOf)
		res.Types[xi] = mt

		kType := cfg.KApprox
		if mt == Exact {
			kType = cfg.KExact
		}
		scores := make([]float64, len(step2))
		for i, c := range step2 {
			scores[i] = c.Score
		}
		k := kType
		if mlmetrics.NormalizedEntropy(scores) < cfg.EntropyThreshold {
			// Skewed distribution: few candidates suffice.
			if cfg.KSmall < k {
				k = cfg.KSmall
			}
		} else {
			// Near-uniform: keep more near-ties.
			if cfg.KLarge > k {
				k = cfg.KLarge
			}
		}
		if k > len(step2) {
			k = len(step2)
		}
		res.Kept = append(res.Kept, step2[:k]...)
	}
	res.Dropped = total - len(res.Kept)

	// Deterministic output order.
	sort.Slice(res.Kept, func(i, j int) bool {
		if res.Kept[i].Text != res.Kept[j].Text {
			return res.Kept[i].Text < res.Kept[j].Text
		}
		return res.Kept[i].Table < res.Kept[j].Table
	})
	return res
}

// mentionType determines whether a text mention is exact, approximate or
// truncated (§V-B): context modifiers decide first; otherwise the surfaces
// of high-confidence candidate table mentions vote. tableDigitsOf supplies
// the (memoized) digit string of a table mention's surface.
func mentionType(doc *document.Document, xi int, ranked []Candidate, highConf float64, tableDigitsOf func(int) string) MentionType {
	x := &doc.TextMentions[xi]
	switch x.Approx {
	case quantity.Approximate, quantity.UpperBound, quantity.LowerBound:
		return Approximate
	case quantity.ApproxExact:
		return Exact
	}

	// Vote among up to five high-confidence candidates. "High confidence" is
	// relative to the best candidate: a pair must reach both the absolute
	// threshold and 80% of the top score, so a single dominant match is not
	// outvoted by mediocre runners-up.
	votes := map[MentionType]int{}
	counted := 0
	xDigits := digits(x.Surface)
	minScore := highConf
	if len(ranked) > 0 && 0.8*ranked[0].Score > minScore {
		minScore = 0.8 * ranked[0].Score
	}
	for _, c := range ranked {
		if counted >= 5 {
			break
		}
		if c.Score < minScore {
			continue
		}
		counted++
		tDigits := tableDigitsOf(c.Table)
		switch {
		case xDigits == tDigits:
			votes[Exact]++
		case len(xDigits) < len(tDigits) && strings.HasPrefix(tDigits, xDigits):
			votes[Truncated]++
		default:
			votes[Approximate]++
		}
	}
	if counted == 0 {
		return Exact // no evidence: treat as exact, the common case
	}
	best, bestVotes := Exact, -1
	for _, mt := range []MentionType{Exact, Approximate, Truncated} {
		if votes[mt] > bestVotes {
			best, bestVotes = mt, votes[mt]
		}
	}
	return best
}

// digits extracts the digit characters of a surface form, ignoring
// formatting (commas, currency, spaces) but keeping order.
func digits(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			sb.WriteByte(s[i])
		}
	}
	return sb.String()
}

// Selectivity returns kept/total, the Table VI headline statistic, with 0
// for an empty input.
func Selectivity(kept, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(kept) / float64(total)
}
