package main

import (
	"net/http"
	"strconv"

	"briq/internal/api"
	"briq/internal/facts"
	"briq/internal/quantsearch"
)

// The pages of /v1/search and /v1/facts are written by the appenders below
// rather than by json.Marshal's reflection, as alignjson.go writes the
// alignment endpoints' results and with its helpers. Each appends the bytes
// json.MarshalIndent writes for the same api.Paginated in the success
// envelope (TestAppendPagesMatchMarshal, FuzzAppendSearchPage and
// FuzzAppendFactsPage hold them to it) and reports ok=false, having appended
// garbage, on a NaN or an infinity, which json.Marshal refuses.

// writePage answers one page of a list endpoint, falling back to
// api.WriteResult, which reports the encoding error, on a value appendItem
// refuses.
func writePage[T any](w http.ResponseWriter, items []T, next string, appendItem func([]byte, *T, int) ([]byte, bool)) {
	if api.WriteResultJSON(w, resultSize(len(items), 0), func(dst []byte, depth int) ([]byte, bool) {
		return appendPage(dst, items, next, depth, appendItem)
	}) {
		return
	}
	api.WriteResult(w, api.Paginated{Items: items, NextCursor: next})
}

// appendPage appends api.Paginated{Items: items, NextCursor: next}, the
// items through appendList.
func appendPage[T any](dst []byte, items []T, next string, depth int, appendItem func([]byte, *T, int) ([]byte, bool)) ([]byte, bool) {
	dst, ok := appendList(firstMember(dst, depth+1, `"items": `), items, depth+1, appendItem)
	if !ok {
		return dst, false
	}
	dst = appendString(nextMember(dst, depth+1, `"next_cursor": `), next)
	return append(newline(dst, depth), '}'), true
}

// appendResult appends a quantsearch.Result: its embedded Entry's fields in
// declaration order, then matched.
func appendResult(dst []byte, r *quantsearch.Result, depth int) ([]byte, bool) {
	in := depth + 1
	dst = appendString(firstMember(dst, in, `"doc_id": `), r.DocID)
	dst = appendString(nextMember(dst, in, `"table_id": `), r.TableID)
	dst = strconv.AppendInt(nextMember(dst, in, `"row": `), int64(r.Row), 10)
	dst = strconv.AppendInt(nextMember(dst, in, `"col": `), int64(r.Col), 10)
	dst = appendString(nextMember(dst, in, `"entity": `), r.Entity)
	dst = appendString(nextMember(dst, in, `"header": `), r.Header)
	dst, ok := appendFloat(nextMember(dst, in, `"value": `), r.Value)
	if !ok {
		return dst, false
	}
	dst = appendString(nextMember(dst, in, `"unit": `), r.Unit)
	dst = appendString(nextMember(dst, in, `"caption": `), r.Caption)
	dst = strconv.AppendInt(nextMember(dst, in, `"matched": `), int64(r.Matched), 10)
	return append(newline(dst, depth), '}'), true
}

// appendFact appends a facts.Fact, its fields in declaration order and unit
// omitted when empty.
func appendFact(dst []byte, f *facts.Fact, depth int) ([]byte, bool) {
	in := depth + 1
	dst = appendString(firstMember(dst, in, `"entity": `), f.Entity)
	dst = appendString(nextMember(dst, in, `"measure": `), f.Measure)
	dst, ok := appendFloat(nextMember(dst, in, `"value": `), f.Value)
	if !ok {
		return dst, false
	}
	if f.Unit != "" {
		dst = appendString(nextMember(dst, in, `"unit": `), f.Unit)
	}
	dst = appendString(nextMember(dst, in, `"agg": `), f.Agg)
	dst = appendString(nextMember(dst, in, `"doc_id": `), f.DocID)
	dst = appendString(nextMember(dst, in, `"table_key": `), f.TableKey)
	dst = appendString(nextMember(dst, in, `"text_surface": `), f.TextSurface)
	if dst, ok = appendFloat(nextMember(dst, in, `"confidence": `), f.Confidence); !ok {
		return dst, false
	}
	return append(newline(dst, depth), '}'), true
}
