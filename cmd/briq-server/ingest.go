package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"unicode/utf8"

	"briq/internal/api"
	"briq/internal/ingest"
)

// ingestLine is one NDJSON request line of POST /v1/ingest.
type ingestLine struct {
	PageID string `json:"page_id"`
	HTML   string `json:"html"`
}

// handleIngest streams pages into the aligned-corpus store: the request body
// is NDJSON, one {"page_id","html"} per line, and the response is NDJSON
// back, one ingest.Result per page in request order. Unlike /align/batch the
// total body is unbounded — only a single line is held in memory, and each
// page is fully processed (segment → fingerprint check → re-align misses →
// upsert) before the next line is read, so memory stays bounded by one
// page's documents regardless of corpus size.
//
// Per-page failures (bad JSON, unalignable HTML, deadline) are reported on
// that page's response line and do not abort the stream; the envelope error
// shape is only used before the stream starts (wrong method).
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, api.CodeMethodNotAllowed, `POST NDJSON lines {"page_id": ..., "html": ...}`)
		return
	}

	// HTTP/1 servers stop reading the request body once the response starts;
	// this handler interleaves both by design, so opt into full duplex
	// (a no-op error on transports that are always duplex).
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	emit := func(res ingest.Result) {
		s.metrics.ingest.Inc("pages")
		if res.Error != "" {
			s.metrics.ingest.Inc("page_errors")
		} else {
			s.metrics.ingest.Add("documents", int64(len(res.Documents)))
			s.metrics.ingest.Add("reused", int64(res.Reused))
			s.metrics.ingest.Add("realigned", int64(res.Realigned))
			s.metrics.ingest.Add("retracted", int64(res.Retracted))
		}
		enc.Encode(res)
		rc.Flush()
	}

	sc := bufio.NewScanner(r.Body)
	// One page per line; a line is capped at the single-page body limit, the
	// stream itself is unbounded.
	sc.Buffer(make([]byte, 0, 64<<10), maxBody)
	lineNo := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		lineNo++
		var pg ingestLine
		if err := json.Unmarshal(line, &pg); err != nil {
			emit(ingest.Result{
				PageID: fmt.Sprintf("line%d", lineNo),
				Error:  fmt.Sprintf("decode line %d: %v", lineNo, err),
				Code:   api.CodeBadRequest,
			})
			continue
		}
		res := ingest.Result{PageID: pg.PageID}
		switch {
		case pg.PageID == "":
			res.PageID = fmt.Sprintf("line%d", lineNo)
			res.Error, res.Code = fmt.Sprintf("line %d: missing page_id", lineNo), api.CodeBadRequest
		case pg.HTML == "":
			res.Error, res.Code = "empty html", api.CodeBadRequest
		case !utf8.ValidString(pg.HTML):
			res.Error, res.Code = "html is not valid UTF-8", api.CodeBadRequest
		case r.Context().Err() != nil:
			res.Error, res.Code = "request deadline exceeded", api.CodeDeadline
		default:
			res = s.ingestor.Page(r.Context(), pg.PageID, pg.HTML)
		}
		emit(res)
		if r.Context().Err() != nil {
			return
		}
	}
	if err := sc.Err(); err != nil {
		// Oversized line or a broken client stream: report it as a final
		// response line (the stream may already be flowing, headers are out).
		emit(ingest.Result{
			PageID: fmt.Sprintf("line%d", lineNo+1),
			Error:  fmt.Sprintf("read stream: %v", err),
			Code:   api.CodePayloadTooLarge,
		})
	}
}
