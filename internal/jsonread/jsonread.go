// Package jsonread is a cursor over JSON text, for the one-pass readers of
// the forms this module writes or is sent: a /v1/align/batch body, a model
// bundle and the forests inside it, and the aligned-corpus store's log
// lines.
//
// A reader built on it accepts one exact form — its keys spelled and
// ordered as the writer emits them, its values of the writer's types — and
// declines everything else, which its caller then decodes with
// encoding/json. So a reader never has to match encoding/json on the rest
// of JSON (case-folded keys, null, repeated keys, invalid UTF-8, numbers out
// of range, …); it has to decode what it accepts exactly as encoding/json
// decodes it. Every method reports whether the text at the cursor was what
// it reads; after a false the cursor's position is unspecified, and the
// reader is expected to give up.
package jsonread

import (
	"bytes"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// Cursor reads JSON text from a byte slice.
type Cursor struct {
	data []byte
	i    int
	buf  []byte // a string's bytes while its escapes are decoded

	// Intern, when non-nil, maps each string Str has returned to itself, so
	// a string read again is not allocated again. Reset empties it.
	Intern map[string]string
}

// New returns a cursor at the start of data.
func New(data []byte) *Cursor { return &Cursor{data: data} }

// Reset moves the cursor to the start of data and forgets the strings it
// interned, keeping its buffers for reuse.
func (c *Cursor) Reset(data []byte) {
	c.data, c.i = data, 0
	clear(c.Intern)
}

// skip consumes white space.
func (c *Cursor) skip() {
	for c.i < len(c.data) {
		switch c.data[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

// Next skips white space and consumes b if it comes next.
func (c *Cursor) Next(b byte) bool {
	c.skip()
	if c.i < len(c.data) && c.data[c.i] == b {
		c.i++
		return true
	}
	return false
}

// End skips white space and reports whether the text ends there.
func (c *Cursor) End() bool {
	c.skip()
	return c.i == len(c.data)
}

// Key consumes the object key name, written without escapes, and the colon
// after it; it consumes nothing when they do not come next.
func (c *Cursor) Key(name string) bool {
	at := c.i
	if c.Next('"') {
		end := c.i + len(name)
		if end < len(c.data) && string(c.data[c.i:end]) == name && c.data[end] == '"' {
			c.i = end + 1
			if c.Next(':') {
				return true
			}
		}
	}
	c.i = at
	return false
}

// Field consumes the comma before an object member and the member's key
// name, as Key does.
func (c *Cursor) Field(name string) bool { return c.Next(',') && c.Key(name) }

// Str reads a string into dst, unescaped. It declines invalid UTF-8, which
// encoding/json replaces rather than rejects, and \u escapes of UTF-16
// surrogates.
func (c *Cursor) Str(dst *string) bool {
	if !c.Next('"') {
		return false
	}
	data, i := c.data, c.i
	start, lit := i, i // lit: the start of the run not yet copied to buf
	buf := c.buf[:0]
	for {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i == len(data) {
			return false
		}
		switch b := data[i]; {
		case b == '"':
			c.i = i + 1
			raw := data[start:i]
			if lit != start { // escaped
				c.buf = append(buf, data[lit:i]...)
				raw = c.buf
			}
			*dst = c.intern(raw)
			return true
		case b == '\\':
			if i+1 == len(data) {
				return false
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
					return false
				}
				buf = utf8.AppendRune(buf, r)
				i += 4
			default:
				return false
			}
			i += 2
			lit = i
		case b < ' ':
			return false
		default: // the first byte of a multi-byte sequence
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
			i += size
		}
	}
}

// intern returns raw as a string, through Intern when it is set.
func (c *Cursor) intern(raw []byte) string {
	if c.Intern == nil {
		return string(raw)
	}
	if s, ok := c.Intern[string(raw)]; ok {
		return s
	}
	s := string(raw)
	c.Intern[s] = s
	return s
}

// Int reads an integer into dst. It declines a fraction, an exponent and
// a value out of range, which encoding/json refuses for an integer field.
func (c *Cursor) Int(dst *int) bool {
	text, integer := c.number()
	if !integer {
		return false
	}
	n, err := strconv.Atoi(string(text))
	if err != nil {
		return false
	}
	*dst = n
	return true
}

// Float reads a number into dst as strconv.ParseFloat parses it, as
// encoding/json does for a float64 field; it declines one out of range.
func (c *Cursor) Float(dst *float64) bool {
	text, _ := c.number()
	if text == nil {
		return false
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}

// number consumes a number and returns its text, nil when none comes
// next, and whether it has neither a fraction nor an exponent.
func (c *Cursor) number() (text []byte, integer bool) {
	c.skip()
	data, start := c.data, c.i
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i)
	default:
		return nil, false
	}
	integer = true
	if i < len(data) && data[i] == '.' {
		at := i + 1
		if i = digits(data, at); i == at {
			return nil, false
		}
		integer = false
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		at := i
		if i = digits(data, i); i == at {
			return nil, false
		}
		integer = false
	}
	c.i = i
	return data[start:i], integer
}

// digits returns the index of the first byte at or after i that is not a
// decimal digit.
func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// Bool reads true or false into dst.
func (c *Cursor) Bool(dst *bool) bool {
	c.skip()
	switch rest := c.data[c.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		c.i += len("true")
		*dst = true
	case bytes.HasPrefix(rest, []byte("false")):
		c.i += len("false")
		*dst = false
	default:
		return false
	}
	return true
}

// List reads an array whose elements elem reads into dst. An empty array
// gives an empty, non-nil slice, as encoding/json does.
func List[T any](c *Cursor, dst *[]T, elem func(*Cursor, *T) bool) bool {
	if !c.Next('[') {
		return false
	}
	out := []T{}
	var zero T
	for !c.Next(']') {
		if len(out) > 0 && !c.Next(',') {
			return false
		}
		// Read in place: a local handed to elem would escape to the heap.
		out = append(out, zero)
		if !elem(c, &out[len(out)-1]) {
			return false
		}
	}
	*dst = out
	return true
}

// plainByte marks the bytes a string holds as they are written: printable
// ASCII but the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
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
	for b := range t {
		switch {
		case '0' <= b && b <= '9':
			t[b] = int8(b - '0')
		case 'a' <= b && b <= 'f':
			t[b] = int8(b - 'a' + 10)
		case 'A' <= b && b <= 'F':
			t[b] = int8(b - 'A' + 10)
		default:
			t[b] = -1
		}
	}
	return t
}()
