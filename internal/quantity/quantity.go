// Package quantity implements quantity mention extraction and normalization
// (§III of the paper): scanning text and table cells for numeric quantities,
// attaching units and scale words, normalizing surface forms ("0.5 million" →
// 500000), and classifying approximation cues. It also defines the aggregate
// function vocabulary (sum, difference, percentage, change ratio, average,
// min, max) shared by the virtual-cell generator, the text-mention tagger and
// the feature extractor.
package quantity

import (
	"fmt"
	"math"
	"strings"
)

// Agg identifies an aggregate function over table cells (§II-A) or the
// single-cell case.
type Agg int

// Aggregate functions. SingleCell denotes a direct (non-aggregated) cell
// reference. The paper's experiments use Sum, Diff, Percent and Ratio (the
// aggregations appearing in ≥5% of tables); Avg, Min and Max are supported by
// the framework and exercised by extension benches.
const (
	SingleCell Agg = iota
	Sum
	Diff
	Percent
	Ratio
	Avg
	Min
	Max
	numAggs
)

// NumAggs is the number of distinct Agg values.
const NumAggs = int(numAggs)

var aggNames = [...]string{"single-cell", "sum", "diff", "percent", "ratio", "avg", "min", "max"}

// String returns the canonical lowercase name of the aggregation.
func (a Agg) String() string {
	if a < 0 || int(a) >= len(aggNames) {
		return fmt.Sprintf("agg(%d)", int(a))
	}
	return aggNames[a]
}

// Valid reports whether a is a defined aggregation value.
func (a Agg) Valid() bool { return a >= 0 && a < numAggs }

// Apply computes the aggregate over the given values. It returns false when
// the aggregation is undefined for the inputs (wrong arity, division by
// zero, or empty input).
func (a Agg) Apply(vals []float64) (float64, bool) {
	switch a {
	case SingleCell:
		if len(vals) != 1 {
			return 0, false
		}
		return vals[0], true
	case Sum:
		if len(vals) < 2 {
			return 0, false
		}
		var s float64
		for _, v := range vals {
			s += v
		}
		return s, true
	case Avg:
		if len(vals) < 2 {
			return 0, false
		}
		var s float64
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals)), true
	case Diff:
		if len(vals) != 2 {
			return 0, false
		}
		return vals[0] - vals[1], true
	case Percent:
		if len(vals) != 2 || vals[1] == 0 {
			return 0, false
		}
		return vals[0] / vals[1] * 100, true
	case Ratio:
		if len(vals) != 2 || vals[0] == 0 {
			return 0, false
		}
		return (vals[0] - vals[1]) / vals[0], true
	case Min:
		if len(vals) < 2 {
			return 0, false
		}
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m, true
	case Max:
		if len(vals) < 2 {
			return 0, false
		}
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m, true
	}
	return 0, false
}

// Arity returns the (min, max) number of input cells the aggregation
// accepts; max = -1 means unbounded.
func (a Agg) Arity() (lo, hi int) {
	switch a {
	case SingleCell:
		return 1, 1
	case Diff, Percent, Ratio:
		return 2, 2
	default:
		return 2, -1
	}
}

// Approx classifies the approximation modifier accompanying a text mention
// (feature f11 and the tagger's approximation indicator, §IV-B/§V-A).
type Approx int

// Approximation indicator values.
const (
	ApproxNone Approx = iota // no modifier observed
	ApproxExact
	Approximate
	UpperBound
	LowerBound
)

var approxNames = [...]string{"none", "exact", "approximate", "upper-bound", "lower-bound"}

// String returns the canonical name of the approximation indicator.
func (a Approx) String() string {
	if a < 0 || int(a) >= len(approxNames) {
		return fmt.Sprintf("approx(%d)", int(a))
	}
	return approxNames[a]
}

// Mention is a quantity mention extracted from text or from a table cell.
type Mention struct {
	Surface   string  // raw surface form, e.g. "$3.26 billion CDN"
	Value     float64 // normalized numeric value, e.g. 3.26e9
	RawValue  float64 // unnormalized numeric part, e.g. 3.26 (feature f7)
	Unit      string  // canonical unit ("USD", "EUR", "%", "bps", ...), "" if none
	Scale     int     // order of magnitude of the normalized value (feature f9)
	Precision int     // digits after the decimal point in the surface (feature f10)
	Approx    Approx  // approximation indicator from surrounding cues
	Start     int     // byte offset of the mention in its source string
	End       int     // byte offset one past the mention
	Sentence  int     // index of the containing sentence (text mentions only)
	TokenPos  int     // index of the numeric token in the source token stream
}

// OrderOfMagnitude returns floor(log10(|v|)), and 0 for v == 0.
func OrderOfMagnitude(v float64) int {
	v = math.Abs(v)
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return int(math.Floor(math.Log10(v)))
}

// RelativeDifference returns |x−t| / max(|x|,|t|) in [0,1], the numeric
// distance of feature f6. It returns 0 when both values are 0 and 1 when
// exactly one is 0.
func RelativeDifference(x, t float64) float64 {
	ax, at := math.Abs(x), math.Abs(t)
	den := math.Max(ax, at)
	if den == 0 {
		return 0
	}
	d := math.Abs(x-t) / den
	if d > 1 {
		d = 1
	}
	return d
}

// approxCues maps lowercase cue words/phrases to approximation indicators
// (§V-A). Multi-word cues are matched greedily by the extractor.
var approxCues = map[string]Approx{
	"about": Approximate, "around": Approximate, "approximately": Approximate,
	"roughly": Approximate, "nearly": Approximate, "almost": Approximate,
	"ca": Approximate, "approx": Approximate, "circa": Approximate,
	"some": Approximate, "close to": Approximate,
	"exactly": ApproxExact, "precisely": ApproxExact,
	"more than": LowerBound, "over": LowerBound, "above": LowerBound,
	"at least": LowerBound, "exceeding": LowerBound, "upwards of": LowerBound,
	"less than": UpperBound, "under": UpperBound, "below": UpperBound,
	"at most": UpperBound, "up to": UpperBound, "fewer than": UpperBound,
}

// AggCues maps each aggregation to the cue words whose presence near a text
// mention signals that aggregation (§V-A: "total, summed, overall, together"
// for sum, and analogous lists).
var AggCues = map[Agg][]string{
	Sum:     {"total", "totals", "sum", "summed", "overall", "together", "combined", "altogether", "in all", "aggregate"},
	Diff:    {"difference", "gap", "more", "fewer", "less", "cheaper", "higher", "lower", "fell", "rose", "up", "down", "gain", "gained", "loss", "lost", "ahead of", "behind"},
	Percent: {"percent", "percentage", "share", "proportion", "of the total", "of all", "accounted for", "make up", "makes up"},
	Ratio:   {"increase", "increased", "decrease", "decreased", "growth", "change", "rate", "grew", "shrank", "declined", "climbed", "jumped", "dropped", "slipped"},
	Avg:     {"average", "averaged", "mean", "typical", "on average"},
	Min:     {"minimum", "least", "lowest", "smallest", "cheapest", "fewest", "bottom"},
	Max:     {"maximum", "most", "highest", "largest", "biggest", "top", "peak", "record"},
}

// aggCueIndex maps a single lowercase cue token to the aggregations it
// supports (first token of multi-word cues).
var aggCueIndex = buildAggCueIndex()

func buildAggCueIndex() map[string][]Agg {
	idx := make(map[string][]Agg)
	for agg, cues := range AggCues {
		for _, cue := range cues {
			if strings.IndexByte(cue, ' ') >= 0 {
				// Multi-word cues ("of the total", "in all") must not leak
				// their first word — "of" would cue percent everywhere.
				continue
			}
			idx[cue] = append(idx[cue], agg)
		}
	}
	return idx
}

// CueAggs returns the aggregations signalled by the given lowercase word,
// or nil when the word is not a cue.
func CueAggs(word string) []Agg { return aggCueIndex[word] }

// CueApprox returns the approximation indicator signalled by the given
// lowercase word or two-word phrase, and whether it is a cue at all.
func CueApprox(phrase string) (Approx, bool) {
	a, ok := approxCues[phrase]
	return a, ok
}
