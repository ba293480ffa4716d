package core

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strconv"

	"briq/internal/document"
	"briq/internal/quantity"
	"briq/internal/serve"
)

// AlignmentSink receives each fresh result of the facade paths — the seam the
// persistent store implements. Add is called once per result the facade
// computed, never for cache hits: page is the serve cache's key for a
// single-page request through a gate (the store records that page once, so a
// restart warms it back), the zero Key for corpus runs and gate-less calls;
// perDoc[i] holds the alignments of docs[i]. A document may arrive again
// (the corpus path keys documents, not pages), so implementations dedup on
// document identity. They must be safe for concurrent use and must not fail
// the alignment: persistence problems are theirs to count and log.
type AlignmentSink interface {
	Add(page serve.Key, docs []*document.Document, perDoc [][]Alignment)
}

// HashDocumentText writes the paragraph part of a document's content — the
// prose and the quantity mentions extracted from it. Together with
// HashDocumentTables it decomposes per-document identity into the two units
// of change a re-crawled page exhibits: an edited paragraph moves only the
// text digest, an edited table only the table digest. The text mentions stay
// in the key although they derive from the prose: corpus.PerturbDocs builds
// documents whose mentions differ while their text does not.
//
// The records are appended with strconv into one buffer and written once.
// The bytes are those of
//
//	"text|%s|" (Text), then "xm|%+v|" per text mention,
//
// where %+v renders a quantity.Mention as {Surface:… Value:… …}, every
// field by name in declaration order, floats as %v (strconv's shortest 'g',
// with "+Inf"), Approx through its String method. They must stay so: they
// are part of every stored document key. A field added to quantity.Mention
// changes the fmt bytes but not these; the oracle tests fail until the
// writer and the store format agree again.
func HashDocumentText(w io.Writer, d *document.Document) {
	b := make([]byte, 0, len("text||")+len(d.Text)+len(d.TextMentions)*textMentionBytes)
	b = append(b, "text|"...)
	b = append(b, d.Text...)
	b = append(b, '|')
	for i := range d.TextMentions {
		b = appendTextMention(b, &d.TextMentions[i])
	}
	w.Write(b)
}

// textMentionBytes is about the length of one text mention's record, which
// sizes HashDocumentText's buffer so it seldom grows.
const textMentionBytes = 160

// appendTextMention appends the "xm|%+v|" record of one text mention.
func appendTextMention(b []byte, m *quantity.Mention) []byte {
	b = append(b, "xm|{Surface:"...)
	b = append(b, m.Surface...)
	b = append(b, " Value:"...)
	b = strconv.AppendFloat(b, m.Value, 'g', -1, 64)
	b = append(b, " RawValue:"...)
	b = strconv.AppendFloat(b, m.RawValue, 'g', -1, 64)
	b = append(b, " Unit:"...)
	b = append(b, m.Unit...)
	b = append(b, " Scale:"...)
	b = strconv.AppendInt(b, int64(m.Scale), 10)
	b = append(b, " Precision:"...)
	b = strconv.AppendInt(b, int64(m.Precision), 10)
	b = append(b, " Approx:"...)
	b = append(b, m.Approx.String()...)
	b = append(b, " Start:"...)
	b = strconv.AppendInt(b, int64(m.Start), 10)
	b = append(b, " End:"...)
	b = strconv.AppendInt(b, int64(m.End), 10)
	b = append(b, " Sentence:"...)
	b = strconv.AppendInt(b, int64(m.Sentence), 10)
	b = append(b, " TokenPos:"...)
	b = strconv.AppendInt(b, int64(m.TokenPos), 10)
	return append(b, "}|"...)
}

// HashDocumentTables writes the table part of a document's content: each
// table's source — ID, caption, headers, footers, dimensions and cell texts.
// The table mentions (single and virtual cells) are not written; see
// HashDocument for why the key need not cover them. The records are appended
// with strconv into one buffer that goes to w whenever it fills, instead of
// one fmt call per record. The bytes are those of
//
//	"table|%s|%s|%q|%q|%q|%d×%d|" (ID, Caption, ColHeaders, RowHeaders,
//	                              Footers, Rows, Cols) per table,
//	"%s\x00" per cell text, row-major, after each table record,
//
// and must stay so: they are part of every stored document key.
func HashDocumentTables(w io.Writer, d *document.Document) {
	b := make([]byte, 0, tableChunk)
	flush := func() {
		if len(b) >= tableChunk*3/4 {
			w.Write(b)
			b = b[:0]
		}
	}
	for _, t := range d.Tables {
		b = append(b, "table|"...)
		b = append(b, t.ID...)
		b = append(b, '|')
		b = append(b, t.Caption...)
		b = append(b, '|')
		b = appendQuotedList(b, t.ColHeaders)
		b = append(b, '|')
		b = appendQuotedList(b, t.RowHeaders)
		b = append(b, '|')
		b = appendQuotedList(b, t.Footers)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(t.Rows()), 10)
		b = append(b, "×"...)
		b = strconv.AppendInt(b, int64(t.Cols()), 10)
		b = append(b, '|')
		flush()
		for r := 0; r < t.Rows(); r++ {
			for c := 0; c < t.Cols(); c++ {
				b = append(b, t.Cell(r, c).Text...)
				b = append(b, 0)
				flush()
			}
		}
	}
	w.Write(b)
}

// tableChunk is the size of HashDocumentTables' buffer, which goes to the
// hash once three quarters full: a document's table part takes a handful of
// writes, and a record of tens of bytes fits in the last quarter. A longer
// one, such as a long caption, grows the buffer instead of being split.
const tableChunk = 4 << 10

// appendQuotedList appends ss as fmt's %q renders a []string: each element
// Go-quoted, space-separated, in brackets ("[]" for nil and empty).
func appendQuotedList(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendQuote(b, s)
	}
	return append(b, ']')
}

// DocumentParts returns the SHA-256 digests of the two sub-document content
// parts — the fingerprints the streaming ingest path compares to decide
// whether a re-crawled document needs re-alignment at all.
func DocumentParts(d *document.Document) (text, tables [sha256.Size]byte) {
	h := sha256.New()
	HashDocumentText(h, d)
	h.Sum(text[:0])
	h.Reset()
	HashDocumentTables(h, d)
	h.Sum(tables[:0])
	return text, tables
}

// HashDocument writes a document's full alignment-relevant identity — its
// position (ID, page) plus the text-part and table-part content digests — so
// two documents share a cache key iff the pipeline would see identical input.
// It is the single definition of per-document request identity: the facade's
// corpus path and the persistent store both derive their serve.Key by
// hashing it through serve.KeyOf, which adds the pipeline's Fingerprint.
//
// The key covers a document's tables by their source, not by the table
// mentions extracted from them (store format v3). Those mentions are a pure
// function of what the key does cover — the table records — and of two
// things the Fingerprint covers: the segmenter's VirtualOpts, and the
// extraction code, named by ExtractionVersion. A change to any of the three
// therefore moves the key or the fingerprint.
func HashDocument(w io.Writer, d *document.Document) {
	text, tables := DocumentParts(d)
	fmt.Fprintf(w, "docv3|%s|%s|", d.ID, d.PageID)
	w.Write(text[:])
	w.Write(tables[:])
}

// AlignmentsSize estimates the resident bytes of a result slice for the
// serve cache's byte accounting: struct footprint plus string payloads. The
// facade and the persistent store's warm loader use the same estimate so
// cache occupancy is accounted identically on both paths.
func AlignmentsSize(als []Alignment) int64 {
	n := int64(len(als))*112 + 48
	for i := range als {
		a := &als[i]
		n += int64(len(a.DocID) + len(a.TextSurface) + len(a.TableKey) + len(a.AggName))
	}
	return n
}
