package tagger

// featuresOracle is the feature computation as it stood before Prepare:
// every call re-tokenizes the paragraph, re-splits its sentences, recounts
// its cues and scans every table mention for exact matches. Prepared must
// reproduce its vectors bit for bit; it stays here as the test oracle.

import (
	"math"
	"strings"
	"testing"

	"briq/internal/document"
	"briq/internal/nlp"
	"briq/internal/quantity"
)

func featuresOracle(doc *document.Document, xi int) []float64 {
	x := &doc.TextMentions[xi]
	vec := make([]float64, NumTagFeatures)

	vec[fApprox] = float64(x.Approx) / 4

	toks := nlp.Tokenize(doc.Text)
	sentences := nlp.SplitSentences(doc.Text)

	// Immediate scope: window of ±immediateScope words around the mention.
	oracleCountCues(vec, 0, oracleImmediateWords(toks, x.TokenPos))
	// Local scope: the mention's sentence.
	if x.Sentence >= 0 && x.Sentence < len(sentences) {
		oracleCountCues(vec, 1, nlp.Words(sentences[x.Sentence]))
	}
	// Global scope: the whole paragraph.
	oracleCountCues(vec, 2, nlp.Words(doc.Text))

	vec[fScale] = float64(x.Scale)
	vec[fPrecision] = float64(x.Precision)
	vec[fUnit] = float64(quantity.ClassOf(x.Unit))

	exact := 0
	for _, tm := range doc.TableMentions {
		if !tm.IsVirtual() && tm.Value == x.Value {
			exact++
		}
	}
	vec[fExactMatches] = float64(exact)
	return vec
}

func oracleCountCues(vec []float64, scope int, words []string) {
	for _, w := range words {
		for _, agg := range quantity.CueAggs(w) {
			for i, ta := range taggedAggs {
				if agg == ta {
					vec[fCueBase+i*3+scope]++
				}
			}
		}
	}
}

func oracleImmediateWords(toks []nlp.Token, pos int) []string {
	lo := pos - immediateScope
	if lo < 0 {
		lo = 0
	}
	hi := pos + immediateScope
	if hi >= len(toks) {
		hi = len(toks) - 1
	}
	var out []string
	for i := lo; i <= hi; i++ {
		if i == pos {
			continue
		}
		switch toks[i].Kind() {
		case nlp.KindWord, nlp.KindAlnum:
			out = append(out, strings.ToLower(toks[i].Text))
		}
	}
	return out
}

// oracleRuleTag is Rule.Tag over the oracle's vector.
func oracleRuleTag(doc *document.Document, xi int) quantity.Agg {
	vec := featuresOracle(doc, xi)
	best := quantity.SingleCell
	bestCount := 0.0
	for i, agg := range taggedAggs {
		count := 2*vec[fCueBase+i*3] + vec[fCueBase+i*3+1]
		if count > bestCount {
			best, bestCount = agg, count
		}
	}
	if bestCount == 0 {
		return quantity.SingleCell
	}
	if vec[fExactMatches] > 0 && bestCount <= 2 {
		return quantity.SingleCell
	}
	return best
}

// CheckPreparedAgainstOracle fails t unless, for every text mention of doc,
// Prepare(doc).Features equals the oracle's vector bit for bit and TagAll
// under t equals tagging each mention from the oracle's vector. It serves
// the corpus-wide test of the external test package; tg must be Rule or
// *Learned.
func CheckPreparedAgainstOracle(t *testing.T, tg Tagger, doc *document.Document) {
	t.Helper()
	p := Prepare(doc)
	tags := TagAll(tg, doc)
	for xi := range doc.TextMentions {
		want := featuresOracle(doc, xi)
		got := p.Features(xi)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("doc %s mention %d feature %d: prepared %v, oracle %v", doc.ID, xi, i, got[i], want[i])
			}
		}
		var wantTag quantity.Agg
		switch tt := tg.(type) {
		case Rule:
			wantTag = oracleRuleTag(doc, xi)
		case *Learned:
			wantTag = quantity.Agg(tt.forest.Predict(want))
		default:
			t.Fatalf("no oracle for tagger %T", tg)
		}
		if tags[xi] != wantTag {
			t.Fatalf("doc %s mention %d: TagAll %v, oracle %v", doc.ID, xi, tags[xi], wantTag)
		}
	}
}

// TestPreparedMatchesOracle: the prepared features and rule tags equal the
// oracle's on documents with cues in every scope, several sentences,
// repeated and missing exact matches, and mentions near the paragraph's ends.
func TestPreparedMatchesOracle(t *testing.T) {
	for _, text := range []string{
		"A total of 84 patients reported side effects.",
		"Depression affected 38 of the patients. In total 35 had a rash; the difference was 3 cases.",
		"Rash rose by 12% over the change rate of last year, while 15 male and 20 female patients, 35 overall, combined for a sum of 70.",
		"38",
		"In total the study had issues; Depression was reported by 38 patients, about 11 had nausea and approx. 5 had eye disorders.",
	} {
		doc := docWith(t, text)
		if len(doc.TextMentions) == 0 {
			t.Fatalf("no mentions in %q", text)
		}
		CheckPreparedAgainstOracle(t, Rule{}, doc)
	}
}
