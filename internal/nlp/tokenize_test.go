package nlp

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func tokenTexts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"A total of 123 patients", []string{"A", "total", "of", "123", "patients"}},
		{"revenue of $3.26 billion CDN", []string{"revenue", "of", "$", "3.26", "billion", "CDN"}},
		{"increased by 1.5%", []string{"increased", "by", "1.5", "%"}},
		{"37K EUR in Germany", []string{"37K", "EUR", "in", "Germany"}},
		{"3,263", []string{"3,263"}},
		{"up $70 million CDN or 2%", []string{"up", "$", "70", "million", "CDN", "or", "2", "%"}},
		{"", nil},
		{"   ", nil},
		{"(1.33)", []string{"(", "1.33", ")"}},
		{"60 bps", []string{"60", "bps"}},
		{"2.3K USD", []string{"2.3K", "USD"}},
		{"Q3 FY 2012", []string{"Q3", "FY", "2012"}},
		{"$(9.49) Million", []string{"$", "(", "9.49", ")", "Million"}},
	}
	for _, tc := range tests {
		got := tokenTexts(Tokenize(tc.in))
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTokenizeSpans(t *testing.T) {
	s := "Sales were up 5% on a reported basis"
	for _, tok := range Tokenize(s) {
		if s[tok.Start:tok.End] != tok.Text {
			t.Errorf("token %q span [%d,%d) does not match source %q",
				tok.Text, tok.Start, tok.End, s[tok.Start:tok.End])
		}
	}
}

func TestTokenizeIndicesSequential(t *testing.T) {
	toks := Tokenize("one two three 4 5.6 seven%")
	for i, tok := range toks {
		if tok.Index != i {
			t.Fatalf("token %d has Index %d", i, tok.Index)
		}
	}
}

func TestTokenKind(t *testing.T) {
	tests := []struct {
		text string
		want TokenKind
	}{
		{"hello", KindWord},
		{"123", KindNumber},
		{"3.26", KindNumber},
		{"37K", KindNumber}, // starts with a digit
		{"Q3", KindAlnum},
		{"$", KindCurrency},
		{"€", KindCurrency},
		{"%", KindPercent},
		{",", KindPunct},
		{"", KindOther},
	}
	for _, tc := range tests {
		tok := Token{Text: tc.text}
		if got := tok.Kind(); got != tc.want {
			t.Errorf("Kind(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestTokenizeCoversAllNonSpace(t *testing.T) {
	// Property: concatenating tokens and removing whitespace from the source
	// yields the same byte sequence (ASCII inputs).
	check := func(s string) bool {
		// Restrict to printable ASCII to keep the property crisp.
		var clean strings.Builder
		for _, r := range s {
			if r >= 32 && r < 127 {
				clean.WriteRune(r)
			}
		}
		src := clean.String()
		var joined strings.Builder
		for _, tok := range Tokenize(src) {
			joined.WriteString(tok.Text)
		}
		want := strings.Map(func(r rune) rune {
			if r == ' ' || r == '\t' {
				return -1
			}
			return r
		}, src)
		return joined.String() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSplitSentences(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{
			"Sales were up 5%. Segment profit was up 11%.",
			[]string{"Sales were up 5%.", "Segment profit was up 11%."},
		},
		{
			"In 2013 revenue of $3.26 billion CDN was up $70 million.",
			[]string{"In 2013 revenue of $3.26 billion CDN was up $70 million."},
		},
		{
			"It cost ca. 37K EUR. That is a lot.",
			[]string{"It cost ca. 37K EUR.", "That is a lot."},
		},
		{"", nil},
		{"No terminator at all", []string{"No terminator at all"}},
		{
			"First part; second part.",
			[]string{"First part;", "second part."},
		},
	}
	for _, tc := range tests {
		got := SplitSentences(tc.in)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitSentences(%q) = %#v, want %#v", tc.in, got, tc.want)
		}
	}
}

func TestSplitSentencesKeepsDecimals(t *testing.T) {
	s := "The ratio was 2.67 overall. The price fell to 1.33 yesterday."
	got := SplitSentences(s)
	if len(got) != 2 {
		t.Fatalf("want 2 sentences, got %d: %#v", len(got), got)
	}
	if !strings.Contains(got[0], "2.67") || !strings.Contains(got[1], "1.33") {
		t.Errorf("decimals were split: %#v", got)
	}
}

func TestWords(t *testing.T) {
	got := Words("The net income of 2013 was $0.9 billion CDN.")
	want := []string{"the", "net", "income", "of", "2013", "was", "0.9", "billion", "cdn"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %#v, want %#v", got, want)
	}
}

func TestContentWords(t *testing.T) {
	got := ContentWords("The net income of the year")
	want := []string{"net", "income", "year"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentWords = %#v, want %#v", got, want)
	}
}
