// Package document implements the Table-Text Extraction stage of BriQ
// (Fig. 2, §III): splitting a web page into coherent documents — a paragraph
// together with all related tables from the same page — and extracting the
// quantity mentions on both sides. Related tables are found by token
// similarity between paragraph and table content above a threshold.
//
// Segmentation has two steps. The first finds the documents: IDs, text,
// text mentions and related tables, which is everything a document key
// (core.HashDocument) reads. The second builds the table mentions (single
// and virtual cells, §II-A), which only alignment reads, and which are most
// of segmentation's cost. SegmentPage, SegmentPageInfo and Segment run both.
// SegmentPageKeys runs the first alone, so a path that answers most
// documents from stored results — the batch endpoint's cache hits and
// ingestion's reuse check — keys them first and runs BuildTableMentions
// only on those it aligns (runtime.AlignPerDoc does, before its fan-out).
package document

import (
	"strconv"

	"briq/internal/htmlx"
	"briq/internal/nlp"
	"briq/internal/quantity"
	"briq/internal/table"
)

// Document is a coherent unit of alignment: one paragraph plus its related
// tables, with all quantity mentions extracted.
//
// TableMentions holds the mentions of each related table in turn, in the
// order of Tables. BuildTableMentions builds each table's list once across
// the documents it is given, so the documents of a page that relate to one
// table share its *table.Mention values: treat TableMentions as read-only.
// It is nil on a document from SegmentPageKeys until BuildTableMentions
// runs, and the aligner refuses such a document. The mentions are a
// function of the table records, Segmenter.VirtualOpts and the extraction
// code, which is why document keys (core.HashDocument) cover the tables and
// not the mentions.
type Document struct {
	ID            string
	PageID        string
	Text          string             // the paragraph text
	Tables        []*table.Table     // related tables (≥1)
	TextMentions  []quantity.Mention // mentions extracted from Text, in order
	TableMentions []*table.Mention   // single + virtual cells across Tables, shared; nil until built
	TextTokens    []string           // lowercase word tokens of Text (cached)
}

// TokenCount returns the number of word tokens in the document text,
// the denominator of the proximity edge weight (§VI-A).
func (d *Document) TokenCount() int { return len(d.TextTokens) }

// Segmenter splits pages into documents. The zero value is not useful; use
// NewSegmenter.
type Segmenter struct {
	// SimilarityThreshold is the minimum paragraph↔table token Jaccard
	// similarity for the table to count as related.
	SimilarityThreshold float64
	// AttachAdjacent additionally relates a table to the paragraphs
	// immediately before and after it in page order even below the
	// similarity threshold, matching how explanatory text hugs its table.
	AttachAdjacent bool
	// VirtualOpts controls virtual-cell generation for table mentions.
	VirtualOpts table.VirtualOptions
	// MinTextMentions drops documents whose paragraph has fewer text
	// quantity mentions (default 1: paragraphs without quantities cannot be
	// aligned).
	MinTextMentions int
}

// NewSegmenter returns a Segmenter with the defaults used throughout the
// experiments: threshold 0.08, adjacency attachment on, the paper's four
// aggregations, at least one text mention.
func NewSegmenter() *Segmenter {
	return &Segmenter{
		SimilarityThreshold: 0.08,
		AttachAdjacent:      true,
		VirtualOpts:         table.DefaultVirtualOptions(),
		MinTextMentions:     1,
	}
}

// SegmentPage parses the blocks of an HTML page into documents, table
// mentions included.
func (s *Segmenter) SegmentPage(pageID string, page *htmlx.Page) ([]*Document, error) {
	res, err := s.SegmentPageInfo(pageID, page)
	return res.Docs, err
}

// Segmentation is the outcome of segmenting one page: the documents plus the
// raw material counts, so callers can tell an unusable page (no numeric
// tables) from an unalignable one (tables, but no quantity-bearing text).
type Segmentation struct {
	Docs          []*Document
	NumericTables int // tables with at least one numeric cell
	Paragraphs    int // non-heading paragraphs considered
}

// SegmentPageInfo parses the blocks of an HTML page into documents, table
// mentions included, and reports what the page offered to work with. It is
// SegmentPageKeys followed by BuildTableMentions on the page's documents.
func (s *Segmenter) SegmentPageInfo(pageID string, page *htmlx.Page) (Segmentation, error) {
	res, err := s.SegmentPageKeys(pageID, page)
	s.BuildTableMentions(res.Docs)
	return res, err
}

// SegmentPageKeys is SegmentPageInfo without the table mentions: the same
// documents — IDs, text, text mentions and related tables — and counts,
// with every document's TableMentions nil. That is all a document key
// reads. Build the mentions of the documents to be aligned with
// BuildTableMentions.
func (s *Segmenter) SegmentPageKeys(pageID string, page *htmlx.Page) (Segmentation, error) {
	var paras []string
	var paraBlock []int // block index per paragraph
	var tables []*table.Table
	var tableBlock []int

	for i, b := range page.Blocks {
		switch blk := b.(type) {
		case *htmlx.Paragraph:
			if blk.Heading {
				continue // headings carry topic words but no alignable text
			}
			paras = append(paras, blk.Text)
			paraBlock = append(paraBlock, i)
		case *htmlx.TableBlock:
			id := pageID + "-t" + strconv.Itoa(len(tables))
			tbl, err := table.New(id, blk.Caption, blk.Grid)
			if err != nil {
				continue // skew or empty table: skip, pages are noisy
			}
			if len(tbl.NumericCells()) == 0 {
				continue // the corpus criterion: tables must contain numerical cells
			}
			tables = append(tables, tbl)
			tableBlock = append(tableBlock, i)
		}
	}
	return Segmentation{
		Docs:          s.segment(pageID, paras, paraBlock, tables, tableBlock),
		NumericTables: len(tables),
		Paragraphs:    len(paras),
	}, nil
}

// Segment builds documents, table mentions included, from pre-extracted
// paragraphs and tables, with positions taken as their slice order.
func (s *Segmenter) Segment(pageID string, paras []string, tables []*table.Table) []*Document {
	paraBlock := make([]int, len(paras))
	tableBlock := make([]int, len(tables))
	for i := range paras {
		paraBlock[i] = i * 2 // interleave positions: p0 t0 p1 t1 ...
	}
	for i := range tables {
		tableBlock[i] = i*2 + 1
	}
	docs := s.segment(pageID, paras, paraBlock, tables, tableBlock)
	s.BuildTableMentions(docs)
	return docs
}

// segment finds the documents of a page, without their table mentions.
func (s *Segmenter) segment(pageID string, paras []string, paraBlock []int, tables []*table.Table, tableBlock []int) []*Document {
	if len(tables) == 0 {
		return nil
	}
	tableSets := make([]nlp.ContentSet, len(tables))
	for i, t := range tables {
		tableSets[i] = nlp.NewContentSet(t.Tokens())
	}

	var docs []*Document
	for pi, para := range paras {
		paraTokens := nlp.Words(para)
		paraSet := nlp.NewContentSet(paraTokens)
		var related []*table.Table
		for ti, t := range tables {
			sim := paraSet.Jaccard(tableSets[ti])
			adjacent := s.AttachAdjacent && isAdjacent(paraBlock[pi], tableBlock[ti], paraBlock, tableBlock)
			if sim >= s.SimilarityThreshold || adjacent {
				related = append(related, t)
			}
		}
		if len(related) == 0 {
			continue
		}
		doc := &Document{
			ID:         pageID + "-d" + strconv.Itoa(len(docs)),
			PageID:     pageID,
			Text:       para,
			Tables:     related,
			TextTokens: paraTokens,
		}
		doc.TextMentions = quantity.ExtractText(para)
		if len(doc.TextMentions) < s.MinTextMentions {
			continue
		}
		docs = append(docs, doc)
	}
	return docs
}

// BuildTableMentions builds the table mentions of the documents that have
// none: each such document's TableMentions become the mentions of its
// tables, table after table in the order of Tables. Each table's list is
// built once across docs, so documents that relate to one table share its
// *table.Mention values, as the documents of one SegmentPageInfo call do.
// Documents that already have table mentions are left as they are. It
// writes the documents, so no other goroutine may read them meanwhile.
func (s *Segmenter) BuildTableMentions(docs []*Document) {
	built := map[*table.Table][]*table.Mention{}
	for _, d := range docs {
		if d.TableMentions != nil {
			continue
		}
		for _, t := range d.Tables {
			ms, ok := built[t]
			if !ok {
				ms = t.Mentions(s.VirtualOpts)
				built[t] = ms
			}
			d.TableMentions = append(d.TableMentions, ms...)
		}
	}
}

// isAdjacent reports whether the paragraph at block position p and the table
// at block position t are adjacent in page order: no other paragraph or
// table lies strictly between them.
func isAdjacent(p, t int, paraBlocks, tableBlocks []int) bool {
	lo, hi := p, t
	if lo > hi {
		lo, hi = hi, lo
	}
	for _, b := range paraBlocks {
		if b > lo && b < hi {
			return false
		}
	}
	for _, b := range tableBlocks {
		if b > lo && b < hi {
			return false
		}
	}
	return true
}
