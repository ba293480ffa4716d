// Package nlp provides the light-weight natural-language utilities that the
// BriQ pipeline depends on: tokenization, sentence and paragraph splitting,
// stopword filtering, a rule-based noun-phrase chunker, and the string and
// bag-of-words similarity measures used by the feature extractor (§III and
// §IV-B of the paper).
//
// The paper deliberately avoids heavy NLP machinery ("the complexity of our
// problem setting is better served by modeling informative features rather
// than solely relying on end-to-end learning"), so everything here is
// rule- and lexicon-based and allocation-conscious.
package nlp

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single token of input text with its span in the original string.
type Token struct {
	Text  string // the token surface form
	Start int    // byte offset of the first byte in the source
	End   int    // byte offset one past the last byte
	Index int    // position in the token sequence
}

// Kind reports a coarse classification of the token.
func (t Token) Kind() TokenKind {
	if t.Text == "" {
		return KindOther
	}
	r, _ := decodeRune(t.Text)
	switch {
	case unicode.IsDigit(r):
		return KindNumber
	case unicode.IsLetter(r):
		// Words containing digits (e.g. "37K") still count as numeric-ish
		// words; the quantity extractor handles them separately.
		for _, c := range t.Text {
			if unicode.IsDigit(c) {
				return KindAlnum
			}
		}
		return KindWord
	case isCurrencyRune(r):
		return KindCurrency
	case r == '%':
		return KindPercent
	default:
		return KindPunct
	}
}

// TokenKind is the coarse lexical class of a token.
type TokenKind int

// Token kinds, from most word-like to least.
const (
	KindWord TokenKind = iota
	KindNumber
	KindAlnum // mixed letters+digits, e.g. "37K", "2Q"
	KindCurrency
	KindPercent
	KindPunct
	KindOther
)

func isCurrencyRune(r rune) bool {
	switch r {
	case '$', '€', '£', '¥', '₹', '¢':
		return true
	}
	return unicode.Is(unicode.Sc, r)
}

// Tokenize splits s into tokens. Runs of letters, runs of digits (with
// embedded decimal points, thousands separators and sign), currency symbols
// and percent signs become individual tokens; other punctuation becomes
// single-rune tokens; whitespace is skipped.
//
// Numbers keep internal '.' and ',' characters when they are flanked by
// digits, so "3,263" and "1.5" are single tokens, matching how quantities
// appear in web tables.
func Tokenize(s string) []Token {
	tokens := make([]Token, 0, len(s)/5+4)
	i := 0
	for i < len(s) {
		r, size := decodeRune(s[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case unicode.IsDigit(r):
			j := scanNumber(s, i)
			if j == i {
				// Non-ASCII digits (NKO, Devanagari, …) pass IsDigit but are
				// not part of the ASCII literals scanNumber consumes; take the
				// single rune so the scan always advances.
				j = i + size
			}
			tokens = appendToken(tokens, s, i, j)
			i = j
		case unicode.IsLetter(r):
			j := i + size
			for j < len(s) {
				r2, sz := decodeRune(s[j:])
				if !unicode.IsLetter(r2) && !unicode.IsDigit(r2) && r2 != '\'' {
					break
				}
				j += sz
			}
			tokens = appendToken(tokens, s, i, j)
			i = j
		default:
			tokens = appendToken(tokens, s, i, i+size)
			i += size
		}
	}
	return tokens
}

// scanNumber consumes a numeric literal starting at offset i: digits with
// optional internal grouping commas, decimal points, and a trailing scale
// suffix letter directly attached (e.g. "37K", "2.3K").
func scanNumber(s string, i int) int {
	j := i
	for j < len(s) {
		c := s[j]
		switch {
		case c >= '0' && c <= '9':
			j++
		case (c == '.' || c == ',') && j+1 < len(s) && s[j+1] >= '0' && s[j+1] <= '9':
			// Separator only counts when followed by another digit.
			j++
		default:
			goto done
		}
	}
done:
	// Attach a single-letter scale suffix such as 37K / 5M / 2.3B.
	if j < len(s) {
		switch s[j] {
		case 'K', 'k', 'M', 'B', 'm':
			// Only when not the start of a longer word ("5Km" stays "5K"+"m"
			// is wrong, so require a word boundary after).
			if j+1 >= len(s) || !isWordByte(s[j+1]) {
				j++
			}
		}
	}
	return j
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func appendToken(tokens []Token, s string, start, end int) []Token {
	return append(tokens, Token{Text: s[start:end], Start: start, End: end, Index: len(tokens)})
}

// decodeRune is a minimal UTF-8 decoder front-end; ASCII fast path. It
// reports the width actually consumed, which for invalid UTF-8 is the 1-byte
// replacement step — computing the width from the decoded rune instead would
// claim 3 bytes for U+FFFD and walk past the end of the string.
func decodeRune(s string) (rune, int) {
	if len(s) > 0 && s[0] < 0x80 {
		return rune(s[0]), 1
	}
	return utf8.DecodeRuneInString(s)
}

// Words returns the lowercase word tokens of s, excluding punctuation.
func Words(s string) []string {
	toks := Tokenize(s)
	out := make([]string, 0, len(toks))
	for _, t := range toks {
		switch t.Kind() {
		case KindWord, KindNumber, KindAlnum:
			out = append(out, strings.ToLower(t.Text))
		}
	}
	return out
}

// SplitSentences splits a paragraph into sentences on '.', '!', '?' and ';'
// boundaries, avoiding splits inside decimal numbers ("3.26 billion") and
// after common abbreviations ("ca.", "approx.", "Mr.").
func SplitSentences(s string) []string {
	var sentences []string
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '.' && c != '!' && c != '?' && c != ';' {
			continue
		}
		if c == '.' {
			// Decimal point: digit on both sides.
			if i > 0 && i+1 < len(s) && isDigitByte(s[i-1]) && isDigitByte(s[i+1]) {
				continue
			}
			if isAbbreviation(s[:i]) {
				continue
			}
		}
		// Consume trailing closing quotes/parens after the terminator.
		end := i + 1
		for end < len(s) && (s[end] == '"' || s[end] == ')' || s[end] == '\'') {
			end++
		}
		sent := strings.TrimSpace(s[start:end])
		if sent != "" {
			sentences = append(sentences, sent)
		}
		start = end
		i = end - 1
	}
	if rest := strings.TrimSpace(s[start:]); rest != "" {
		sentences = append(sentences, rest)
	}
	return sentences
}

func isDigitByte(c byte) bool { return c >= '0' && c <= '9' }

var abbreviations = map[string]bool{
	"ca": true, "approx": true, "mr": true, "mrs": true, "dr": true,
	"vs": true, "etc": true, "e.g": true, "i.e": true, "no": true,
	"fig": true, "inc": true, "ltd": true, "corp": true, "jan": true,
	"feb": true, "mar": true, "apr": true, "jun": true, "jul": true,
	"aug": true, "sep": true, "oct": true, "nov": true, "dec": true,
	"st": true, "mio": true,
}

func isAbbreviation(prefix string) bool {
	// Take the word immediately before the period.
	end := len(prefix)
	start := end
	for start > 0 && (isWordByte(prefix[start-1]) || prefix[start-1] == '.') {
		start--
	}
	w := strings.ToLower(prefix[start:end])
	w = strings.TrimSuffix(w, ".")
	return abbreviations[w]
}
