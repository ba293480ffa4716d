package core

import (
	"crypto/sha256"
	"fmt"
	"io"

	"briq/internal/document"
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
// text digest, an edited table only the table digest.
func HashDocumentText(w io.Writer, d *document.Document) {
	fmt.Fprintf(w, "text|%s|", d.Text)
	for _, m := range d.TextMentions {
		fmt.Fprintf(w, "xm|%+v|", m)
	}
}

// HashDocumentTables writes the table part of a document's content: grids,
// headers, captions, footers, and the table-side mention list (single cells
// and virtual aggregate cells).
func HashDocumentTables(w io.Writer, d *document.Document) {
	for _, t := range d.Tables {
		fmt.Fprintf(w, "table|%s|%s|%q|%q|%q|%d×%d|",
			t.ID, t.Caption, t.ColHeaders, t.RowHeaders, t.Footers, t.Rows(), t.Cols())
		for r := 0; r < t.Rows(); r++ {
			for c := 0; c < t.Cols(); c++ {
				fmt.Fprintf(w, "%s\x00", t.Cell(r, c).Text)
			}
		}
	}
	for _, m := range d.TableMentions {
		fmt.Fprintf(w, "tm|%s|%g|%s|%v|%d|", m.Key(), m.Value, m.Unit, m.Orient, m.Index)
	}
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
// hashing it through serve.KeyOf.
func HashDocument(w io.Writer, d *document.Document) {
	text, tables := DocumentParts(d)
	fmt.Fprintf(w, "docv2|%s|%s|", d.ID, d.PageID)
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
