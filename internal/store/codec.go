package store

import (
	"encoding/json"

	"briq/internal/core"
	"briq/internal/facts"
	"briq/internal/jsonread"
	"briq/internal/quantity"
	"briq/internal/quantsearch"
)

// WireAlignment carries a core.Alignment through the store's NDJSON log and
// any other persistence path, restoring the aggregation code that the public
// JSON shape deliberately omits. It is the one wire codec for alignments —
// the log records, the ingest path, and offline readers all round-trip
// through ToWire/FromWire instead of keeping private copies.
type WireAlignment struct {
	core.Alignment
	AggCode int `json:"agg_code"`
}

// ToWire converts alignments to their wire form.
func ToWire(als []core.Alignment) []WireAlignment {
	out := make([]WireAlignment, len(als))
	for i, a := range als {
		out[i] = WireAlignment{Alignment: a, AggCode: int(a.Agg)}
	}
	return out
}

// FromWire restores alignments from their wire form, preserving nil (a
// record that stored no alignments round-trips to no alignments).
func FromWire(ws []WireAlignment) []core.Alignment {
	if ws == nil {
		return nil
	}
	out := make([]core.Alignment, len(ws))
	for i, w := range ws {
		a := w.Alignment
		a.Agg = quantity.Agg(w.AggCode)
		out[i] = a
	}
	return out
}

// decodeRecord decodes one log line as json.Unmarshal decodes it into a
// record. The form append writes, json.Marshal of a record, is read in one
// pass through c (parseRecord), which interns the strings the line repeats
// when c.Intern is set; every other line, each malformed one included, is
// decoded by json.Unmarshal.
func decodeRecord(c *jsonread.Cursor, line []byte) (record, error) {
	c.Reset(line)
	if r, ok := parseRecord(c); ok {
		return r, nil
	}
	var r record
	err := json.Unmarshal(line, &r)
	return r, err
}

// parseRecord reads a record in the form json.Marshal writes it — each
// field's key in declaration order, omitted fields absent — followed by
// nothing but white space. It declines every other form.
func parseRecord(c *jsonread.Cursor) (record, bool) {
	var r record
	if !c.Next('{') || !c.Key("kind") || !c.Str(&r.Kind) {
		return r, false
	}
	// field counts the fields read, so each key is accepted once, in order.
	for field := 0; !c.Next('}'); {
		if !c.Next(',') {
			return r, false
		}
		var ok bool
		switch {
		case field < 1 && c.Key("key"):
			field, ok = 1, c.Str(&r.Key)
		case field < 2 && c.Key("doc_id"):
			field, ok = 2, c.Str(&r.DocID)
		case field < 3 && c.Key("page_id"):
			field, ok = 3, c.Str(&r.PageID)
		case field < 4 && c.Key("alignments"):
			field, ok = 4, jsonread.List(c, &r.Alignments, parseAlignment)
		case field < 5 && c.Key("entries"):
			field, ok = 5, jsonread.List(c, &r.Entries, parseEntry)
		case field < 6 && c.Key("facts"):
			field, ok = 6, jsonread.List(c, &r.Facts, parseFact)
		case field < 7 && c.Key("supersedes"):
			field, ok = 7, jsonread.List(c, &r.Supersedes, (*jsonread.Cursor).Str)
		case field < 8 && c.Key("page_docs"):
			field, ok = 8, jsonread.List(c, &r.PageDocs, (*jsonread.Cursor).Str)
		}
		if !ok {
			return r, false
		}
	}
	return r, c.End()
}

func parseAlignment(c *jsonread.Cursor, w *WireAlignment) bool {
	a := &w.Alignment
	return c.Next('{') && c.Key("doc_id") && c.Str(&a.DocID) &&
		c.Field("text_index") && c.Int(&a.TextIndex) &&
		c.Field("table_index") && c.Int(&a.TableIndex) &&
		c.Field("text_surface") && c.Str(&a.TextSurface) &&
		c.Field("text_start") && c.Int(&a.TextStart) &&
		c.Field("text_end") && c.Int(&a.TextEnd) &&
		c.Field("table_key") && c.Str(&a.TableKey) &&
		c.Field("agg") && c.Str(&a.AggName) &&
		c.Field("value") && c.Float(&a.Value) &&
		c.Field("score") && c.Float(&a.Score) &&
		c.Field("agg_code") && c.Int(&w.AggCode) &&
		c.Next('}')
}

func parseEntry(c *jsonread.Cursor, e *quantsearch.Entry) bool {
	return c.Next('{') && c.Key("doc_id") && c.Str(&e.DocID) &&
		c.Field("table_id") && c.Str(&e.TableID) &&
		c.Field("row") && c.Int(&e.Row) &&
		c.Field("col") && c.Int(&e.Col) &&
		c.Field("entity") && c.Str(&e.Entity) &&
		c.Field("header") && c.Str(&e.Header) &&
		c.Field("value") && c.Float(&e.Value) &&
		c.Field("unit") && c.Str(&e.Unit) &&
		c.Field("caption") && c.Str(&e.Caption) &&
		c.Next('}')
}

// parseFact reads a fact, whose "unit" json.Marshal omits when empty.
func parseFact(c *jsonread.Cursor, f *facts.Fact) bool {
	ok := c.Next('{') && c.Key("entity") && c.Str(&f.Entity) &&
		c.Field("measure") && c.Str(&f.Measure) &&
		c.Field("value") && c.Float(&f.Value) &&
		c.Next(',')
	if ok && c.Key("unit") {
		ok = c.Str(&f.Unit) && c.Next(',')
	}
	return ok && c.Key("agg") && c.Str(&f.Agg) &&
		c.Field("doc_id") && c.Str(&f.DocID) &&
		c.Field("table_key") && c.Str(&f.TableKey) &&
		c.Field("text_surface") && c.Str(&f.TextSurface) &&
		c.Field("confidence") && c.Float(&f.Confidence) &&
		c.Next('}')
}
