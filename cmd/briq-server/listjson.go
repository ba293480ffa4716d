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
// alignment endpoints' results and with its appendString and appendFloat.
// Each appends the bytes json.Marshal writes for the same api.Paginated
// (TestAppendPagesMatchMarshal, FuzzAppendSearchPage and FuzzAppendFactsPage
// hold them to it) and reports ok=false, having appended garbage, on a NaN
// or an infinity, which json.Marshal refuses.

// writePage answers one page of a list endpoint, falling back to
// api.WriteResult, which reports the encoding error, on a value appendItem
// refuses.
func writePage[T any](w http.ResponseWriter, items []T, next string, appendItem func([]byte, *T) ([]byte, bool)) {
	if result, ok := appendPage(make([]byte, 0, resultSize(len(items), 0)), items, next, appendItem); ok {
		api.WriteResultJSON(w, result)
		return
	}
	api.WriteResult(w, api.Paginated{Items: items, NextCursor: next})
}

// appendPage appends api.Paginated{Items: items, NextCursor: next}, the
// items through appendList.
func appendPage[T any](dst []byte, items []T, next string, appendItem func([]byte, *T) ([]byte, bool)) ([]byte, bool) {
	dst, ok := appendList(append(dst, `{"items":`...), items, appendItem)
	if !ok {
		return dst, false
	}
	dst = appendString(append(dst, `,"next_cursor":`...), next)
	return append(dst, '}'), true
}

// appendResult appends a quantsearch.Result: its embedded Entry's fields in
// declaration order, then matched.
func appendResult(dst []byte, r *quantsearch.Result) ([]byte, bool) {
	dst = appendString(append(dst, `{"doc_id":`...), r.DocID)
	dst = appendString(append(dst, `,"table_id":`...), r.TableID)
	dst = strconv.AppendInt(append(dst, `,"row":`...), int64(r.Row), 10)
	dst = strconv.AppendInt(append(dst, `,"col":`...), int64(r.Col), 10)
	dst = appendString(append(dst, `,"entity":`...), r.Entity)
	dst = appendString(append(dst, `,"header":`...), r.Header)
	dst, ok := appendFloat(append(dst, `,"value":`...), r.Value)
	if !ok {
		return dst, false
	}
	dst = appendString(append(dst, `,"unit":`...), r.Unit)
	dst = appendString(append(dst, `,"caption":`...), r.Caption)
	dst = strconv.AppendInt(append(dst, `,"matched":`...), int64(r.Matched), 10)
	return append(dst, '}'), true
}

// appendFact appends a facts.Fact, its fields in declaration order and unit
// omitted when empty.
func appendFact(dst []byte, f *facts.Fact) ([]byte, bool) {
	dst = appendString(append(dst, `{"entity":`...), f.Entity)
	dst = appendString(append(dst, `,"measure":`...), f.Measure)
	dst, ok := appendFloat(append(dst, `,"value":`...), f.Value)
	if !ok {
		return dst, false
	}
	if f.Unit != "" {
		dst = appendString(append(dst, `,"unit":`...), f.Unit)
	}
	dst = appendString(append(dst, `,"agg":`...), f.Agg)
	dst = appendString(append(dst, `,"doc_id":`...), f.DocID)
	dst = appendString(append(dst, `,"table_key":`...), f.TableKey)
	dst = appendString(append(dst, `,"text_surface":`...), f.TextSurface)
	if dst, ok = appendFloat(append(dst, `,"confidence":`...), f.Confidence); !ok {
		return dst, false
	}
	return append(dst, '}'), true
}
