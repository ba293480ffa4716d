package main

import (
	"bytes"
	"encoding/json"
	"io"

	"briq/internal/jsonread"
)

// decodeBatch reads a POST /align/batch body as json.Decoder.Decode reads
// it into a batchRequest: the first JSON value is the request, and whatever
// follows it is ignored. size is the request's Content-Length (-1 when
// unknown); it sizes the read buffer, which is all the body is read into.
//
// The form clients send, {"pages": [{"id": "...", "html": "..."}, ...]} with
// the keys spelled exactly so, is parsed in one pass over the bytes read
// (parseBatch). Every other body, each malformed one included, and every
// read that fails are decoded by json.Decoder from the same bytes followed
// by the same read error, so the request and the error message are always
// json.Decoder's.
func decodeBatch(r io.Reader, size int64) (batchRequest, error) {
	var buf bytes.Buffer
	if 0 < size && size <= maxBody {
		buf.Grow(int(size) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	if err == nil {
		if req, ok := parseBatch(buf.Bytes()); ok {
			return req, nil
		}
	}
	var req batchRequest
	err = json.NewDecoder(io.MultiReader(&buf, r)).Decode(&req)
	return req, err
}

// parseBatch parses the leading JSON value of data when it has the form
// {"pages": [page, ...]}, each page an object whose keys are "id" and
// "html" with string values, and reports whether it did. It gives the
// batchRequest json.Decoder gives; anything it is not sure to decode the
// same way — other keys, keys spelled otherwise, null or non-string values,
// a repeated "pages", invalid UTF-8 (which encoding/json replaces rather
// than rejects), \u escapes of UTF-16 surrogates — and every syntax error
// make it decline.
func parseBatch(data []byte) (batchRequest, bool) {
	var req batchRequest
	c := jsonread.New(data)
	ok := c.Next('{') && c.Key("pages") && jsonread.List(c, &req.Pages, parseBatchPage) && c.Next('}')
	return req, ok
}

// parseBatchPage parses one page object. Either key may be missing, and a
// repeated key overwrites the earlier value, as in encoding/json.
func parseBatchPage(c *jsonread.Cursor, pg *batchPage) bool {
	if !c.Next('{') {
		return false
	}
	for first := true; !c.Next('}'); first = false {
		if !first && !c.Next(',') {
			return false
		}
		var ok bool
		switch {
		case c.Key("id"):
			ok = c.Str(&pg.ID)
		case c.Key("html"):
			ok = c.Str(&pg.HTML)
		}
		if !ok {
			return false
		}
	}
	return true
}
