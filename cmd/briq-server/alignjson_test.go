package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"briq"
	"briq/internal/core"
	"briq/internal/corpus"
)

// sameAsMarshal fails t unless appended, the appenders' output for v, is
// what json.Marshal writes for v.
func sameAsMarshal(t *testing.T, name string, appended []byte, ok bool, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if !ok {
		if err == nil {
			t.Fatalf("%s: appender refused a value json.Marshal writes as %s", name, want)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: appender wrote %s where json.Marshal fails: %v", name, appended, err)
	}
	if !bytes.Equal(appended, want) {
		t.Fatalf("%s:\nappended %s\nMarshal  %s", name, appended, want)
	}
}

// checkAppenders runs every appender over als and holds each to
// json.Marshal.
func checkAppenders(t *testing.T, name string, als []briq.Alignment) {
	t.Helper()
	got, ok := appendAlignResult(nil, als)
	sameAsMarshal(t, name+" /v1/align", got, ok, map[string]any{"alignments": als})
	pages := []batchPageResult{{ID: "page0", Documents: 2, Alignments: als}, {ID: "<b>&", Alignments: []briq.Alignment{}}}
	got, ok = appendBatchResult(nil, pages, 2, len(als))
	sameAsMarshal(t, name+" /v1/align/batch", got, ok, map[string]any{"pages": pages, "documents": 2, "alignments": len(als)})
}

func TestAppendAlignmentsMatchesMarshal(t *testing.T) {
	cfg := corpus.TableSConfig(1)
	cfg.Pages = 4
	p := core.NewPipeline()
	var real []briq.Alignment
	for _, doc := range corpus.Generate(cfg).Docs {
		real = append(real, p.Align(doc)...)
	}
	if len(real) == 0 {
		t.Fatal("generated corpus has no alignments")
	}
	checkAppenders(t, "generated corpus", real)
	checkAppenders(t, "nil", nil)
	checkAppenders(t, "empty", []briq.Alignment{})

	odd := briq.Alignment{
		DocID:       "d<0>&\"q\"\\",
		TextSurface: "ctl \x00\x01\b\f\n\r\t\x1f\x7f",
		TableKey:    "bad utf8 \xff\xfe and \xed\xa0\x80, separators \u2028\u2029, text é €",
		AggName:     "sum",
		TextIndex:   -1, TableIndex: math.MaxInt32, TextStart: 0, TextEnd: math.MinInt32,
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -2.5, 123.456, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, -1e21,
		5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1.0 / 3} {
		a := odd
		a.Value, a.Score = f, -f
		checkAppenders(t, "edge values", []briq.Alignment{a, real[0]})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := odd
		a.Score = f
		checkAppenders(t, "non-finite", []briq.Alignment{real[0], a})
	}
}

// FuzzAppendAlignments: for any alignment, the appenders write what
// json.Marshal writes, and refuse what it refuses.
func FuzzAppendAlignments(f *testing.F) {
	f.Add("d0", "total of 123", "t0:sum(col 3)", "sum", 3, 7, 12, 24, 123.0, 0.87)
	f.Add("<d>&", "\x00\xff\u2028", "\"k\"\\", "", -1, 0, 0, 0, 1e-7, math.Inf(1))
	f.Fuzz(func(t *testing.T, docID, surface, tableKey, agg string, ti, tab, start, end int, value, score float64) {
		a := briq.Alignment{DocID: docID, TextSurface: surface, TableKey: tableKey, AggName: agg,
			TextIndex: ti, TableIndex: tab, TextStart: start, TextEnd: end, Value: value, Score: score}
		checkAppenders(t, "fuzzed", []briq.Alignment{a})
	})
}
