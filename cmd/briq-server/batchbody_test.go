package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"

	"briq/internal/corpus"
)

// batchBodies are request bodies on both sides of parseBatch's form:
// bodies it parses, bodies it declines that encoding/json accepts
// differently or rejects, and bodies cut short.
func batchBodies() []string {
	return []string{
		`{"pages":[{"id":"a","html":"<p>x</p>"}]}`,
		` {"pages" : [ {"html":"x" , "id":"b"} , {"html":"y"} ] } trailing garbage`,
		`{"pages":[]}`, `{"pages":[{}]}`, `{}`, `null`, `[]`, ``, `   `,
		`{"pages":null}`, `{"pages":[null]}`, `{"pages":[{"id":null,"html":"x"}]}`,
		`{"pages":[{"id":1,"html":"x"}]}`, `{"pages":[{"id":"a","html":"x","extra":true}]}`,
		`{"Pages":[{"ID":"a","HTML":"x"}]}`, `{"pages":[{"id":"a","html":"x"}],"pages":[{"html":"y"}]}`,
		`{"pages":[{"id":"a","id":"b","html":"x","html":"y"}]}`,
		`{"pages":[{"id":"a","html":"x"},]}`, `{"pages":[{"id":"a","html":"x",}]}`,
		`{"pages":[{"id" "a"}]}`, `{"pages":[{"id""html":"x"}]}`, `{"pages":[{"id ":"a","html":"x"}]}`,
		`{"pages":[{"\u0069d":"a","html":"x"}]}`,
		`{"pages":[{"html":"<p> \"q\" \\ \/ \b\f\n\r\t é € \u0000"}]}`,
		`{"pages":[{"html":"\ud83d\ude00 pair"}]}`, `{"pages":[{"html":"\ud83d lone"}]}`,
		`{"pages":[{"html":"bad \x escape"}]}`, `{"pages":[{"html":"\u12G4"}]}`, `{"pages":[{"html":"\u12"}]}`,
		"{\"pages\":[{\"html\":\"raw\ttab\"}]}", "{\"pages\":[{\"html\":\"caf\xc3\xa9 \xe2\x82\xac\"}]}",
		"{\"pages\":[{\"html\":\"bad \xff utf8\"}]}", "{\"pages\":[{\"html\":\"surrogate \xed\xa0\x80\"}]}",
		"\xef\xbb\xbf{\"pages\":[]}",
		`{"pages":[{"id":"a","html":"x"}]`, `{"pages":[{"id":"a","html":"x`, `{"pages":[{"id":"a","html":"x\`,
		`{"pages":[{"id":"a","html":"x\u00`,
	}
}

// decodeWithDecoder is what the batch handler did before parseBatch: one
// json.Decoder.Decode straight from the body.
func decodeWithDecoder(r io.Reader) (batchRequest, error) {
	var req batchRequest
	err := json.NewDecoder(r).Decode(&req)
	return req, err
}

// sameDecode fails t unless decodeBatch and json.Decoder, each reading the
// body from its own reader, give the same request and the same error — but
// for a body read in full that is not valid UTF-8, which json.Decoder
// decodes with U+FFFD in place of each bad byte and decodeBatch must refuse
// with errNotUTF8.
func sameDecode(t *testing.T, name string, newReader func() io.Reader) {
	t.Helper()
	got, gotErr := decodeBatch(newReader(), -1)
	if body, err := io.ReadAll(newReader()); err == nil && !utf8.Valid(body) {
		if gotErr != errNotUTF8 {
			t.Fatalf("%s: error %v for a body that is not UTF-8, want %v", name, gotErr, errNotUTF8)
		}
		return
	}
	want, wantErr := decodeWithDecoder(newReader())
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, json.Decoder's is %v", name, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got.Pages, want.Pages) && (len(got.Pages) != 0 || len(want.Pages) != 0) {
		t.Fatalf("%s: decoded %+v, json.Decoder decodes %+v", name, got, want)
	}
}

func TestDecodeBatchMatchesDecoder(t *testing.T) {
	for _, body := range batchBodies() {
		sameDecode(t, body, func() io.Reader { return strings.NewReader(body) })
	}
	// A read that fails: the value completes before the failure in the
	// first case, so json.Decoder never sees it; it does not in the second.
	readErr := errors.New("connection reset")
	for _, body := range []string{`{"pages":[{"html":"x"}]}`, `{"pages":[{"html":"x"`} {
		sameDecode(t, body+" then a read error", func() io.Reader {
			return io.MultiReader(strings.NewReader(body), iotest.ErrReader(readErr))
		})
	}
}

// TestParseBatchTakesClientBodies: the bodies json.Marshal writes for real
// pages — HTML escaped as \u003c, quotes, newlines, non-ASCII text — take
// the one-pass parse, so the fast path is the one requests use.
func TestParseBatchTakesClientBodies(t *testing.T) {
	cfg := corpus.TableSConfig(1)
	cfg.Pages = 8
	var req batchRequest
	for _, pg := range corpus.Generate(cfg).Pages {
		req.Pages = append(req.Pages, batchPage{ID: pg.ID, HTML: pg.HTML()})
	}
	req.Pages = append(req.Pages, batchPage{HTML: "<p>café \"quoted\" 5\u202f% \u2028 \U0001F600 & \\ \t\n</p>"})
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := parseBatch(body)
	if !ok {
		t.Fatalf("parseBatch declined a json.Marshal body: %.200s", body)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("parseBatch decoded a different request")
	}
}

// FuzzDecodeBatch: for any body, decodeBatch gives the request and the
// error json.Decoder gives.
func FuzzDecodeBatch(f *testing.F) {
	for _, body := range batchBodies() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sameDecode(t, string(body), func() io.Reader { return bytes.NewReader(body) })
	})
}
