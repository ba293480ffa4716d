package main

import (
	"bytes"
	"encoding/json"
	"io"
	"unicode/utf16"
	"unicode/utf8"
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
	p := &batchParser{data: data}
	if !p.next('{') || !p.key("pages") || !p.next('[') {
		return batchRequest{}, false
	}
	pages := []batchPage{}
	for first := true; !p.next(']'); first = false {
		if !first && !p.next(',') {
			return batchRequest{}, false
		}
		pg, ok := p.page()
		if !ok {
			return batchRequest{}, false
		}
		pages = append(pages, pg)
	}
	if !p.next('}') {
		return batchRequest{}, false
	}
	return batchRequest{Pages: pages}, true
}

// batchParser is parseBatch's cursor over the body. buf holds a string's
// bytes while its escapes are decoded, and is reused from string to string.
type batchParser struct {
	data []byte
	i    int
	buf  []byte
}

// page parses one page object. Either key may be missing, and a repeated
// key overwrites the earlier value, as in encoding/json.
func (p *batchParser) page() (batchPage, bool) {
	var pg batchPage
	if !p.next('{') {
		return pg, false
	}
	for first := true; !p.next('}'); first = false {
		if !first && !p.next(',') {
			return pg, false
		}
		var dst *string
		switch {
		case p.key("id"):
			dst = &pg.ID
		case p.key("html"):
			dst = &pg.HTML
		default:
			return pg, false
		}
		s, ok := p.str()
		if !ok {
			return pg, false
		}
		*dst = s
	}
	return pg, true
}

// next skips white space and consumes c if it comes next.
func (p *batchParser) next(c byte) bool {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
			continue
		case c:
			p.i++
			return true
		}
		return false
	}
	return false
}

// key consumes the object key name, written without escapes, and the colon
// after it; it consumes nothing when they do not come next.
func (p *batchParser) key(name string) bool {
	at := p.i
	if p.next('"') {
		end := p.i + len(name)
		if end < len(p.data) && string(p.data[p.i:end]) == name && p.data[end] == '"' {
			p.i = end + 1
			if p.next(':') {
				return true
			}
		}
	}
	p.i = at
	return false
}

// str parses a string value and returns it unescaped.
func (p *batchParser) str() (string, bool) {
	if !p.next('"') {
		return "", false
	}
	data, i := p.data, p.i
	start, lit := i, i // lit: the start of the run not yet copied to buf
	buf := p.buf[:0]
	for {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i == len(data) {
			return "", false
		}
		switch c := data[i]; {
		case c == '"':
			p.i = i + 1
			if lit == start { // no escapes
				return string(data[start:i]), true
			}
			p.buf = append(buf, data[lit:i]...)
			return string(p.buf), true
		case c == '\\':
			if i+1 == len(data) {
				return "", false
			}
			buf = append(buf, data[lit:i]...)
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, ok := hex4(data[i+2:])
				if !ok || utf16.IsSurrogate(r) {
					return "", false
				}
				buf = utf8.AppendRune(buf, r)
				i += 4
			default:
				return "", false
			}
			i += 2
			lit = i
		case c < ' ':
			return "", false
		default: // the first byte of a multi-byte sequence
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			i += size
		}
	}
}

// plainByte marks the bytes a string holds as they are written: printable
// ASCII but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hex4 decodes the four hex digits a \u escape starts with.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	d0, d1, d2, d3 := hexDigit[b[0]], hexDigit[b[1]], hexDigit[b[2]], hexDigit[b[3]]
	if d0|d1|d2|d3 < 0 {
		return 0, false
	}
	return rune(d0)<<12 | rune(d1)<<8 | rune(d2)<<4 | rune(d3), true
}

// hexDigit maps a byte to its value as a hex digit, and every other byte
// to -1.
var hexDigit = func() (t [256]int8) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = int8(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = int8(c - 'a' + 10)
		case 'A' <= c && c <= 'F':
			t[c] = int8(c - 'A' + 10)
		default:
			t[c] = -1
		}
	}
	return t
}()
