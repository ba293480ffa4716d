package main

import (
	"math"
	"strconv"
	"unicode/utf8"

	"briq"
)

// The results of /v1/align and /v1/align/batch are written by the appenders
// below rather than by json.Marshal's reflection. Each appends the bytes
// json.Marshal writes for the same value (TestAppendAlignmentsMatchesMarshal
// and FuzzAppendAlignments hold them to it) and reports ok=false, having
// appended garbage, when an alignment holds a NaN or an infinity, which
// json.Marshal refuses: the caller then answers through api.WriteResult,
// which reports the encoding error as it always has.

// resultSize is a capacity that holds the result of most responses with
// the given numbers of items (alignments, search results or facts) and
// batch pages without regrowing.
func resultSize(items, pages int) int {
	return 256*items + 96*pages + 64
}

// appendAlignResult appends /v1/align's result, {"alignments": [...]}.
func appendAlignResult(dst []byte, als []briq.Alignment) ([]byte, bool) {
	dst, ok := appendList(append(dst, `{"alignments":`...), als, appendAlignment)
	return append(dst, '}'), ok
}

// appendBatchResult appends /v1/align/batch's result, the map
// {"pages", "documents", "alignments"} with its keys in json.Marshal's
// sorted order.
func appendBatchResult(dst []byte, pages []batchPageResult, documents, alignments int) ([]byte, bool) {
	dst = strconv.AppendInt(append(dst, `{"alignments":`...), int64(alignments), 10)
	dst = strconv.AppendInt(append(dst, `,"documents":`...), int64(documents), 10)
	dst, ok := appendList(append(dst, `,"pages":`...), pages, appendBatchPage)
	return append(dst, '}'), ok
}

// appendBatchPage appends one batchPageResult.
func appendBatchPage(dst []byte, pg *batchPageResult) ([]byte, bool) {
	dst = appendString(append(dst, `{"id":`...), pg.ID)
	dst = strconv.AppendInt(append(dst, `,"documents":`...), int64(pg.Documents), 10)
	dst, ok := appendList(append(dst, `,"alignments":`...), pg.Alignments, appendAlignment)
	return append(dst, '}'), ok
}

// appendAlignment appends a core.Alignment, its JSON fields in declaration
// order.
func appendAlignment(dst []byte, a *briq.Alignment) ([]byte, bool) {
	dst = appendString(append(dst, `{"doc_id":`...), a.DocID)
	dst = strconv.AppendInt(append(dst, `,"text_index":`...), int64(a.TextIndex), 10)
	dst = strconv.AppendInt(append(dst, `,"table_index":`...), int64(a.TableIndex), 10)
	dst = appendString(append(dst, `,"text_surface":`...), a.TextSurface)
	dst = strconv.AppendInt(append(dst, `,"text_start":`...), int64(a.TextStart), 10)
	dst = strconv.AppendInt(append(dst, `,"text_end":`...), int64(a.TextEnd), 10)
	dst = appendString(append(dst, `,"table_key":`...), a.TableKey)
	dst = appendString(append(dst, `,"agg":`...), a.AggName)
	dst, ok := appendFloat(append(dst, `,"value":`...), a.Value)
	if !ok {
		return dst, false
	}
	if dst, ok = appendFloat(append(dst, `,"score":`...), a.Score); !ok {
		return dst, false
	}
	return append(dst, '}'), true
}

// appendList appends a slice as json.Marshal does: null when nil, else its
// items, each through appendItem, in an array.
func appendList[T any](dst []byte, items []T, appendItem func([]byte, *T) ([]byte, bool)) ([]byte, bool) {
	if items == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = appendItem(dst, &items[i]); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

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
