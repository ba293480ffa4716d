// Package api is the shared HTTP surface of the briq serving binaries:
// the response envelope, the stable error-code table, and the versioned
// route table that briq-server and briq-gateway both mount.
//
// Everything here is contract, not mechanism. The envelope shape
// {"result": …, "error": {"code", "message"}} and the code → status table
// are what clients (package client, dashboards, proxies) branch on; the
// route table is what keeps the server and the gateway exposing the same
// paths, golden-tested in both packages. Changing anything in this package
// is an API change and must move the goldens in the same commit.
package api

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
)

// The stable error-code table. Every error leaving an alignment endpoint
// carries one of these codes in the envelope's error.code field; the HTTP
// status is derived from the code, never chosen ad hoc, so clients can
// branch on either. Codes are append-only: changing a name or a status
// breaks clients and the table-driven tests in cmd/briq-server.
const (
	CodeBadRequest       = "bad_request"        // malformed body, bad encoding, bad JSON
	CodeMethodNotAllowed = "method_not_allowed" // wrong HTTP verb
	CodePayloadTooLarge  = "payload_too_large"  // body or page count over the cap
	CodeNoTables         = "no_tables"          // page has no table with numeric cells
	CodeNoMentions       = "no_mentions"        // page text has no alignable quantities
	CodeUnprocessable    = "unprocessable"      // page parsed but could not be aligned
	CodeBadQuery         = "bad_query"          // uninterpretable search/facts query parameters
	CodeOverloaded       = "overloaded"         // shed by admission control; retry later
	CodeInternal         = "internal"           // bug: handler panic or encode failure
	CodeUnavailable      = "unavailable"        // transient server-side failure (no healthy replica)
	CodeDeadline         = "deadline"           // request deadline exhausted mid-flight
)

// StatusByCode maps every error code to its HTTP status.
var StatusByCode = map[string]int{
	CodeBadRequest:       http.StatusBadRequest,            // 400
	CodeMethodNotAllowed: http.StatusMethodNotAllowed,      // 405
	CodePayloadTooLarge:  http.StatusRequestEntityTooLarge, // 413
	CodeNoTables:         http.StatusUnprocessableEntity,   // 422
	CodeNoMentions:       http.StatusUnprocessableEntity,   // 422
	CodeUnprocessable:    http.StatusUnprocessableEntity,   // 422
	CodeBadQuery:         http.StatusUnprocessableEntity,   // 422
	CodeOverloaded:       http.StatusTooManyRequests,       // 429
	CodeInternal:         http.StatusInternalServerError,   // 500
	CodeUnavailable:      http.StatusServiceUnavailable,    // 503
	CodeDeadline:         http.StatusGatewayTimeout,        // 504
}

// Envelope is the uniform response shape of the alignment endpoints: exactly
// one of Result and Error is non-null. Both keys are always present, so the
// response schema does not change between success and failure.
type Envelope struct {
	Result any    `json:"result"`
	Error  *Error `json:"error"`
}

// Error is the wire form of one envelope error.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Paginated is the shared result shape of the list endpoints (/search,
// /facts): it rides inside the envelope's result field as
// {"items": […], "next_cursor": "…"}. NextCursor is always present — "" on
// the final page — so clients follow cursors without probing for the key.
// Items is always a JSON array, never null.
type Paginated struct {
	Items      any    `json:"items"`
	NextCursor string `json:"next_cursor"`
}

// Page slices a full result list into one page. cursor is the opaque
// decimal offset ("" = start); limit ≤ 0 picks DefaultPageSize, and limits
// above MaxPageSize clamp. The second result is the next cursor ("" when the
// page exhausts the list).
func Page[T any](items []T, offset, limit int) ([]T, string) {
	return Slice(PageWindow(offset, limit), items, len(items))
}

// A Window is the span [Offset, End) of a ranked list that one page request
// reads. It is known before the list is, so a list endpoint can rank just
// the list's first End items.
type Window struct{ Offset, End int }

// PageWindow is the window of a request for limit items from the decimal
// cursor offset: limit ≤ 0 picks DefaultPageSize, limits above MaxPageSize
// clamp, a negative offset reads as 0, and End saturates at math.MaxInt
// instead of overflowing.
func PageWindow(offset, limit int) Window {
	if limit <= 0 {
		limit = DefaultPageSize
	}
	limit = min(limit, MaxPageSize)
	offset = max(offset, 0)
	if offset > math.MaxInt-limit {
		return Window{offset, math.MaxInt}
	}
	return Window{offset, offset + limit}
}

// Slice returns the page w reads from a list of total items whose first
// min(w.End, total) items are head, and the next cursor: the offset of the
// page after, or "" when this page ends the list. A page past the end of
// the list is [], never null.
func Slice[T any](w Window, head []T, total int) ([]T, string) {
	if w.Offset >= total {
		return []T{}, ""
	}
	if w.End >= total {
		return head[w.Offset:total], ""
	}
	return head[w.Offset:w.End], strconv.Itoa(w.End)
}

// Pagination bounds shared by the list endpoints.
const (
	DefaultPageSize = 20
	MaxPageSize     = 100
)

// WriteResult answers 200 with the success half of the envelope.
func WriteResult(w http.ResponseWriter, v any) {
	WriteJSON(w, http.StatusOK, Envelope{Result: v})
}

// WriteError answers with the error half of the envelope; the HTTP status
// comes from the error-code table (unknown codes degrade to 500 internal
// rather than leaking an unregistered code). An overloaded or unavailable
// response carries a Retry-After hint, the contract clients' backoff loops
// key on.
func WriteError(w http.ResponseWriter, code, message string) {
	status, ok := StatusByCode[code]
	if !ok {
		status, code = http.StatusInternalServerError, CodeInternal
	}
	if code == CodeOverloaded || code == CodeUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, Envelope{Error: &Error{Code: code, Message: message}})
}

// WriteJSON encodes v to a buffer first, so an encoding failure can still
// produce a clean 500 — once WriteHeader has fired the status is committed
// and a half-written body is all the client would get. The body is exactly
// what json.MarshalIndent(v, "", "  ") writes, plus a newline.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, fmt.Sprintf("encode response: %v", err), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, append(appendIndent(make([]byte, 0, 2*len(data)+1), data, 0), '\n'))
}

// WriteResultJSON answers 200 with the success envelope around result,
// which must be the compact JSON json.Marshal writes for the result value:
// the body is then exactly WriteResult's for that value. It is for handlers
// that encode their result without reflection.
func WriteResultJSON(w http.ResponseWriter, result []byte) {
	body := append(make([]byte, 0, 2*len(result)+32), "{\n  \"result\": "...)
	body = appendIndent(body, result, 1)
	writeBody(w, http.StatusOK, append(body, ",\n  \"error\": null\n}\n"...))
}

// writeBody answers status with body, a whole JSON response.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		// Headers are gone; nothing to do but note the broken pipe.
		log.Printf("write response: %v", err)
	}
}

// appendIndent appends src, the output of json.Marshal, to dst indented as
// json.MarshalIndent(v, "", "  ") indents it: a newline and two spaces per
// depth after every '{', '[' and ',' and before every '}' and ']' outside
// strings, "": " after a key, and "{}" and "[]" for empty containers. String
// contents, escapes included, and scalars are copied unchanged. One pass,
// no validation: json.Marshal output is compact, valid JSON. depth is the
// nesting src sits at in the whole document, 0 for a whole document.
func appendIndent(dst, src []byte, depth int) []byte {
	start := 0 // src[start:i] is still to be copied
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '"':
			for i++; src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if c := src[i+1]; c == '}' || c == ']' {
				i++
				continue
			}
			depth++
			dst = appendNewline(append(dst, src[start:i+1]...), depth)
			start = i + 1
		case '}', ']':
			depth--
			dst = appendNewline(append(dst, src[start:i]...), depth)
			start = i
		case ',':
			dst = appendNewline(append(dst, src[start:i+1]...), depth)
			start = i + 1
		case ':':
			dst = append(append(dst, src[start:i+1]...), ' ')
			start = i + 1
		}
	}
	return append(dst, src[start:]...)
}

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for i := 0; i < depth; i++ {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
