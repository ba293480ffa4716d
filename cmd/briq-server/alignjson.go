package main

import (
	"math"
	"strconv"
	"unicode/utf8"

	"briq"
)

// The results of /v1/align and /v1/align/batch are written by the appenders
// below rather than by json.Marshal's reflection, straight into the body
// api.WriteResultJSON answers with. Each appends the bytes
// json.MarshalIndent(api.Envelope{Result: v}, "", "  ") writes for its value
// v at the given nesting depth (TestAppendAlignmentsMatchesMarshal and
// FuzzAppendAlignments hold them to it), and reports ok=false, having
// appended garbage, when an alignment holds a NaN or an infinity, which
// json.Marshal refuses: the caller then answers through api.WriteResult,
// which reports the encoding error as it always has.

// resultSize is a capacity that holds the body of most responses with the
// given numbers of items (alignments, search results or facts) and batch
// pages without regrowing.
func resultSize(items, pages int) int {
	return 384*items + 128*pages + 96
}

// appendAlignResult appends /v1/align's result, {"alignments": [...]}.
func appendAlignResult(dst []byte, als []briq.Alignment, depth int) ([]byte, bool) {
	dst, ok := appendList(firstMember(dst, depth+1, `"alignments": `), als, depth+1, appendAlignment)
	return append(newline(dst, depth), '}'), ok
}

// appendBatchResult appends /v1/align/batch's result, the map
// {"pages", "documents", "alignments"} with its keys in json.Marshal's
// sorted order.
func appendBatchResult(dst []byte, pages []batchPageResult, documents, alignments, depth int) ([]byte, bool) {
	in := depth + 1
	dst = strconv.AppendInt(firstMember(dst, in, `"alignments": `), int64(alignments), 10)
	dst = strconv.AppendInt(nextMember(dst, in, `"documents": `), int64(documents), 10)
	dst, ok := appendList(nextMember(dst, in, `"pages": `), pages, in, appendBatchPage)
	return append(newline(dst, depth), '}'), ok
}

// appendBatchPage appends one batchPageResult.
func appendBatchPage(dst []byte, pg *batchPageResult, depth int) ([]byte, bool) {
	in := depth + 1
	dst = appendString(firstMember(dst, in, `"id": `), pg.ID)
	dst = strconv.AppendInt(nextMember(dst, in, `"documents": `), int64(pg.Documents), 10)
	dst, ok := appendList(nextMember(dst, in, `"alignments": `), pg.Alignments, in, appendAlignment)
	return append(newline(dst, depth), '}'), ok
}

// appendAlignment appends a core.Alignment, its JSON fields in declaration
// order.
func appendAlignment(dst []byte, a *briq.Alignment, depth int) ([]byte, bool) {
	in := depth + 1
	dst = appendString(firstMember(dst, in, `"doc_id": `), a.DocID)
	dst = strconv.AppendInt(nextMember(dst, in, `"text_index": `), int64(a.TextIndex), 10)
	dst = strconv.AppendInt(nextMember(dst, in, `"table_index": `), int64(a.TableIndex), 10)
	dst = appendString(nextMember(dst, in, `"text_surface": `), a.TextSurface)
	dst = strconv.AppendInt(nextMember(dst, in, `"text_start": `), int64(a.TextStart), 10)
	dst = strconv.AppendInt(nextMember(dst, in, `"text_end": `), int64(a.TextEnd), 10)
	dst = appendString(nextMember(dst, in, `"table_key": `), a.TableKey)
	dst = appendString(nextMember(dst, in, `"agg": `), a.AggName)
	dst, ok := appendFloat(nextMember(dst, in, `"value": `), a.Value)
	if !ok {
		return dst, false
	}
	if dst, ok = appendFloat(nextMember(dst, in, `"score": `), a.Score); !ok {
		return dst, false
	}
	return append(newline(dst, depth), '}'), true
}

// appendList appends a slice at depth as json.MarshalIndent does: null when
// nil, [] when empty, else its items, each through appendItem on a line of
// its own one level deeper, in an array.
func appendList[T any](dst []byte, items []T, depth int, appendItem func([]byte, *T, int) ([]byte, bool)) ([]byte, bool) {
	if items == nil {
		return append(dst, "null"...), true
	}
	if len(items) == 0 {
		return append(dst, "[]"...), true
	}
	dst = append(dst, '[')
	for i := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = appendItem(newline(dst, depth+1), &items[i], depth+1); !ok {
			return dst, false
		}
	}
	return append(newline(dst, depth), ']'), true
}

// firstMember appends the "{" of an object whose members sit at depth, and
// the start of its first member: a line break, the indentation and key, the
// member's quoted name and ": ". Every name here is plain ASCII, which JSON
// quotes as it is.
func firstMember(dst []byte, depth int, key string) []byte {
	return append(newline(append(dst, '{'), depth), key...)
}

// nextMember appends the start of a later member at depth: the comma, a
// line break, the indentation and key, as for firstMember.
func nextMember(dst []byte, depth int, key string) []byte {
	return append(append(dst, indentation[:2+2*depth]...), key...)
}

// newline appends a line break and the indentation of depth, two spaces a
// level, as json.MarshalIndent indents with "  ".
func newline(dst []byte, depth int) []byte {
	return append(dst, indentation[1:2+2*depth]...)
}

// indentation is a comma, a line break and the deepest indentation the
// appenders write: a batch's alignment fields sit six levels into the
// envelope.
const indentation = ",\n              "

// appendFloat appends a float64 as json.Marshal does: the shortest decimal
// that round-trips, in exponent form (without a leading zero in the
// exponent) below 1e-6 and from 1e21 in magnitude.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst, true
}

// appendString appends s quoted as json.Marshal quotes it: the quote, the
// backslash and \b \f \n \r \t escaped by name, other control bytes and
// <, > and & as \u00XX, invalid UTF-8 as \ufffd, and U+2028 and U+2029
// as \u2028 and \u2029.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // s[start:i] is still to be copied
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// htmlSafe marks the ASCII bytes json.Marshal copies into a string as they
// are: printable, but not the quote, the backslash, <, > or &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()
